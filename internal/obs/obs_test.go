package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	// A gauge is read from its callback at every scrape.
	r := NewRegistry()
	g := 2.5
	r.GaugeFunc("t_g", "h", func(emit func(v float64, kv ...string)) { emit(g) })
	for _, want := range []string{"t_g 2.5\n", "t_g 4\n"} {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition %q lacks %q", b.String(), want)
		}
		g = 4
	}

	// Nil handles are no-ops.
	var nc *Counter
	nc.Inc()
	if nc.Value() != 0 {
		t.Fatal("nil handles must read zero")
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	if r.Counter("x", "h") != nil || r.DurationHistogram("z", "h") != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	r.GaugeFunc("f", "h", func(emit func(v float64, kv ...string)) {})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil registry exposition: err=%v out=%q", err, b.String())
	}
}

func TestRegistrySameFamilySameChild(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dne_test_total", "help", "kind", "x")
	b := r.Counter("dne_test_total", "help", "kind", "x")
	if a != b {
		t.Fatal("same family + labels must return the same counter")
	}
	c := r.Counter("dne_test_total", "help", "kind", "y")
	if a == c {
		t.Fatal("different labels must return different counters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a family under a different type must panic")
		}
	}()
	r.GaugeFunc("dne_test_total", "help", func(emit func(v float64, kv ...string)) {})
}

// TestExpositionGolden locks the text exposition format: a counter family
// with two children, a gauge, a gauge-func family, and a histogram with a
// known bucket layout.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_requests_total", "Requests served.", "code", "200").Add(7)
	r.Counter("t_requests_total", "Requests served.", "code", "500").Add(1)
	r.GaugeFunc("t_temperature", "Current temperature.", func(emit func(v float64, kv ...string)) {
		emit(36.6)
	})
	r.GaugeFunc("t_shards", "Per-shard sizes.", func(emit func(v float64, kv ...string)) {
		emit(10, "shard", "1")
		emit(4, "shard", "0") // emitted out of order: exposition must sort
	})
	h := r.histogram("t_latency", "Query latency.", 1, []string{"kind", "khop"})
	for _, v := range []int64{3, 3, 17, 100} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	// Buckets: 3 → bucket 3 (le 3), 17 → bucket 17 (le 17), 100 → octave
	// bucket [97,103] (le 103).
	want := `# HELP t_latency Query latency.
# TYPE t_latency histogram
t_latency_bucket{kind="khop",le="3"} 2
t_latency_bucket{kind="khop",le="17"} 3
t_latency_bucket{kind="khop",le="103"} 4
t_latency_bucket{kind="khop",le="+Inf"} 4
t_latency_sum{kind="khop"} 123
t_latency_count{kind="khop"} 4
# HELP t_requests_total Requests served.
# TYPE t_requests_total counter
t_requests_total{code="200"} 7
t_requests_total{code="500"} 1
# HELP t_shards Per-shard sizes.
# TYPE t_shards gauge
t_shards{shard="0"} 4
t_shards{shard="1"} 10
# HELP t_temperature Current temperature.
# TYPE t_temperature gauge
t_temperature 36.6
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestExpositionDurationScale(t *testing.T) {
	r := NewRegistry()
	h := r.DurationHistogram("t_dur_seconds", "Latency.")
	h.Observe(2_000_000_000) // 2s in ns
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "t_dur_seconds_sum 2\n") {
		t.Fatalf("sum must be exported in seconds:\n%s", out)
	}
	// 2e9 ns lands in the bucket with upper bound 2013265919 ns ≈ 2.013s.
	if !strings.Contains(out, `le="2.0132`) {
		t.Fatalf("bucket bounds must be exported in seconds:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_esc_total", "h", "path", "a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `path="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped:\n%s", b.String())
	}
}

// TestRegistryConcurrent exercises concurrent family/child creation,
// recording, and exposition under -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kind := string(rune('a' + w%4))
			for i := 0; i < 500; i++ {
				r.Counter("t_c_total", "h", "kind", kind).Inc()
				r.GaugeFunc("t_g", "h", func(emit func(v float64, kv ...string)) {
					emit(float64(i), "kind", kind)
				})
				r.DurationHistogram("t_h_seconds", "h", "kind", kind).Observe(int64(i))
				if i%100 == 0 {
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, kind := range []string{"a", "b", "c", "d"} {
		total += r.Counter("t_c_total", "h", "kind", kind).Value()
	}
	if total != 8*500 {
		t.Fatalf("counter total %d != %d", total, 8*500)
	}
}
