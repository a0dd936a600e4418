package main

import (
	"testing"
	"time"
)

// The expected values are statistics.quantiles(xs, n=4) of Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p50, p99 := percentile(xs, 50), percentile(xs, 99); p50 != 100 || p99 != 198 {
		t.Errorf("p50 %v p99 %v, want 100 and 198", p50, p99)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tk := newTracer("test", 0).track("t")
	outer := tk.begin("outer")
	for i := 0; i < 3; i++ {
		s := tk.begin("inner")
		time.Sleep(time.Millisecond)
		s.end()
	}
	outer.end()
	tot := tk.totals()
	if tot["inner"].count != 3 || tot["inner"].self != tot["inner"].total {
		t.Errorf("inner spans: %+v", tot["inner"])
	}
	if got := tot["outer"].self + tot["inner"].total; got != tot["outer"].total {
		t.Errorf("outer self %v + inner %v != outer %v", tot["outer"].self, tot["inner"].total, tot["outer"].total)
	}
	var nilTrack *track
	nilTrack.begin("x").end() // an untraced rep records nothing
	if len(nilTrack.totals()) != 0 {
		t.Error("nil track has spans")
	}
}
