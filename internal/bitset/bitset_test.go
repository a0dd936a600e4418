package bitset

import (
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if !s.Empty() {
		t.Error("new set should be empty")
	}
	s.Set(0)
	s.Set(64)
	s.Set(129)
	if s.Count() != 3 {
		t.Errorf("Count = %d, want 3", s.Count())
	}
	for _, i := range []int{0, 64, 129} {
		if !s.Has(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if s.Has(1) || s.Has(128) {
		t.Error("unexpected bits set")
	}
	s.Clear(64)
	if s.Has(64) || s.Count() != 2 {
		t.Error("Clear failed")
	}
	s.Reset()
	if !s.Empty() {
		t.Error("Reset failed")
	}
}

func TestForEachOrder(t *testing.T) {
	s := New(200)
	want := []int{3, 64, 65, 199}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
}

func TestIntersectAndOr(t *testing.T) {
	a, b, dst := New(100), New(100), New(100)
	a.Set(1)
	a.Set(70)
	b.Set(70)
	b.Set(99)
	if !IntersectInto(dst, a, b) {
		t.Fatal("intersection should be non-empty")
	}
	if dst.Count() != 1 || !dst.Has(70) {
		t.Error("wrong intersection")
	}
	b.Clear(70)
	if IntersectInto(dst, a, b) {
		t.Error("intersection should be empty now")
	}
	a.Or(b)
	if !a.Has(99) {
		t.Error("Or failed")
	}
}

func TestQuickSetHasCount(t *testing.T) {
	// Property: after setting an arbitrary subset of [0,512), Has matches
	// membership and Count matches the distinct count.
	f := func(idx []uint16) bool {
		s := New(512)
		seen := map[int]bool{}
		for _, i := range idx {
			b := int(i) % 512
			s.Set(b)
			seen[b] = true
		}
		if s.Count() != len(seen) {
			return false
		}
		for b := 0; b < 512; b++ {
			if s.Has(b) != seen[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWordsFor(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 64: 1, 65: 2, 1024: 16}
	for n, want := range cases {
		if got := WordsFor(n); got != want {
			t.Errorf("WordsFor(%d) = %d, want %d", n, got, want)
		}
	}
}
