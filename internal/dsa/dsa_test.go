package dsa

import (
	"cmp"
	"container/heap"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// --- reference implementations (the map/container-heap structures the dense
// ones replaced; kept here so every release is differentially checked
// against them) ---

type refEntry struct {
	v uint32
	d int32
}

type refHeap []refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].d != h[j].d {
		return h[i].d < h[j].d
	}
	return h[i].v < h[j].v
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// refBoundary is the old map-based lazy boundary.
type refBoundary struct {
	h     refHeap
	score map[uint32]int32
}

func newRefBoundary() *refBoundary {
	return &refBoundary{score: map[uint32]int32{}}
}

func (b *refBoundary) update(v uint32, d int32) {
	if old, ok := b.score[v]; ok && old == d {
		return
	}
	b.score[v] = d
	heap.Push(&b.h, refEntry{v: v, d: d})
}

func (b *refBoundary) popK(k int) []uint32 {
	var out []uint32
	for len(out) < k && b.h.Len() > 0 {
		e := heap.Pop(&b.h).(refEntry)
		cur, live := b.score[e.v]
		if !live || cur != e.d {
			continue
		}
		delete(b.score, e.v)
		out = append(out, e.v)
	}
	return out
}

func (b *refBoundary) popMin() (uint32, bool) {
	for b.h.Len() > 0 {
		e := heap.Pop(&b.h).(refEntry)
		if cur, ok := b.score[e.v]; ok && cur == e.d {
			delete(b.score, e.v)
			return e.v, true
		}
	}
	return 0, false
}

// --- MinHeap4 ---

func TestMinHeap4MatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		var h MinHeap4
		var ref refHeap
		n := 1 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			k := int32(rng.Intn(50))
			v := uint32(rng.Intn(300))
			h.Push(k, v, v)
			heap.Push(&ref, refEntry{v: v, d: k})
		}
		for ref.Len() > 0 {
			want := heap.Pop(&ref).(refEntry)
			got := h.Pop()
			if got.K != want.d || got.V != want.v {
				t.Fatalf("trial %d: pop mismatch: got (%d,%d) want (%d,%d)",
					trial, got.K, got.V, want.d, want.v)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("trial %d: heap not drained: %d left", trial, h.Len())
		}
	}
}

// TestBoundaryPopOrderMatchesReference drives the dense boundary and the old
// map/container-heap boundary through identical randomized update/pop
// sequences and asserts identical pop order — the bit-for-bit determinism
// contract the partitioners rely on. The boundary keeps each vertex in a
// slot of a random permutation, as Distributed NE keeps it under a compact
// id, so the order must come from the vertex ids, not the slots.
func TestBoundaryPopOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 512
	b := NewBoundary(n)
	slot := rng.Perm(n)
	for trial := 0; trial < 30; trial++ {
		b.Reset()
		ref := newRefBoundary()
		var scratch []uint32
		for step := 0; step < 200; step++ {
			switch rng.Intn(3) {
			case 0, 1: // batch of updates
				for i := 0; i < rng.Intn(40); i++ {
					v := uint32(rng.Intn(n))
					d := int32(rng.Intn(30))
					b.Update(uint32(slot[v]), v, d)
					ref.update(v, d)
				}
			case 2: // popK
				k := 1 + rng.Intn(8)
				got := b.PopK(k, scratch)
				want := ref.popK(k)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d step %d: popK(%d) = %v, want %v",
						trial, step, k, got, want)
				}
				scratch = got
			}
			if b.Len() != len(ref.score) {
				t.Fatalf("trial %d step %d: len %d != ref %d", trial, step, b.Len(), len(ref.score))
			}
		}
		// Drain.
		for {
			got := b.PopK(4, scratch)
			want := ref.popK(4)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d drain: %v != %v", trial, got, want)
			}
			if len(want) == 0 {
				break
			}
		}
	}
}

// TestBoundaryPopMinMatchesReference covers the NE-style popMin path,
// including epoch reuse across partitions.
func TestBoundaryPopMinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 256
	b := NewBoundary(n)
	for part := 0; part < 40; part++ {
		b.Reset()
		ref := newRefBoundary()
		for step := 0; step < 150; step++ {
			if rng.Intn(3) > 0 {
				v := uint32(rng.Intn(n))
				d := int32(rng.Intn(20) - 5)
				b.Update(v, v, d)
				ref.update(v, d)
			} else {
				gotV, gotOK := b.PopMin()
				wantV, wantOK := ref.popMin()
				if gotOK != wantOK || gotV != wantV {
					t.Fatalf("part %d step %d: popMin (%d,%v) != (%d,%v)",
						part, step, gotV, gotOK, wantV, wantOK)
				}
			}
		}
	}
}

func TestBoundaryPoppedVertexMayReenter(t *testing.T) {
	b := NewBoundary(8)
	b.Update(3, 3, 5)
	got := b.PopK(1, nil)
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("popK = %v, want [3]", got)
	}
	b.Update(3, 3, 5) // same score as the stale heap entry
	if b.Len() != 1 {
		t.Fatalf("popped vertex did not re-enter: len=%d", b.Len())
	}
	if got = b.PopK(4, got); len(got) != 1 || got[0] != 3 {
		t.Fatalf("second popK = %v, want [3] exactly once", got)
	}
}

func TestBoundaryRemove(t *testing.T) {
	b := NewBoundary(8)
	b.Update(3, 3, 5)
	b.Update(4, 4, 1)
	b.Remove(4)
	b.Remove(6) // not live: no-op
	if b.Len() != 1 {
		t.Fatalf("len = %d after removing one of two, want 1", b.Len())
	}
	if v, ok := b.PopMin(); !ok || v != 3 {
		t.Fatalf("PopMin = (%d,%v), want (3,true)", v, ok)
	}
	b.Update(4, 4, 1) // a removed vertex may come back
	if v, ok := b.PopMin(); !ok || v != 4 {
		t.Fatalf("PopMin = (%d,%v), want (4,true)", v, ok)
	}
}

func TestBoundaryResetEpochWrap(t *testing.T) {
	b := NewBoundary(4)
	b.Update(1, 1, 7)
	b.epoch = ^uint32(0)
	b.mark[2] = 1 // a stale stamp that would alias the post-wrap epoch
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("stale live membership after epoch wrap")
	}
	b.Update(3, 3, 5)
	if b.Len() != 1 {
		t.Fatal("insert after epoch wrap did not take")
	}
	if v, ok := b.PopMin(); !ok || v != 3 {
		t.Fatalf("PopMin = (%d,%v), want (3,true)", v, ok)
	}
}

// --- EpochSet ---

// has reports whether v is in s.
func has(s *EpochSet, v uint32) bool { return s.stamp[v] == s.epoch }

func TestEpochSet(t *testing.T) {
	s := NewEpochSet(10)
	if has(s, 4) {
		t.Fatal("fresh set has 4")
	}
	if !s.Add(4) || s.Add(4) {
		t.Fatal("Add semantics wrong")
	}
	if !has(s, 4) {
		t.Fatal("4 missing after Add")
	}
	s.Clear()
	if has(s, 4) {
		t.Fatal("4 survived Clear")
	}
	if !s.Add(4) {
		t.Fatal("re-Add after Clear failed")
	}
}

func TestEpochSetWrap(t *testing.T) {
	s := NewEpochSet(4)
	s.Add(1)
	s.epoch = ^uint32(0) // force wrap on next Clear
	s.stamp[2] = 1       // stale stamp equal to the post-wrap epoch
	s.Clear()
	if has(s, 2) || has(s, 1) {
		t.Fatal("stale membership after epoch wrap")
	}
}

// --- sorts ---

func TestSortU64MatchesSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 3, sortSmall + 7, 120_000} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64() >> uint(rng.Intn(40))
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		SortU64(keys)
		if !slices.Equal(keys, want) {
			t.Fatalf("n=%d: SortU64 mismatch", n)
		}
	}
}

func TestMergeU64MatchesSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ runs, n, shift int }{
		{0, 0, 0}, {3, 0, 0}, {1, 5, 0}, {4, 1_000, 40}, {16, 50_000, 32}, {130, 80_000, 20}, {5, 20_000, 60},
	} {
		runs := make([][]uint64, tc.runs)
		var want []uint64
		for i := 0; i < tc.n; i++ {
			k := rng.Uint64() >> uint(tc.shift)
			r := rng.Intn(tc.runs)
			runs[r] = append(runs[r], k)
			want = append(want, k)
		}
		for _, r := range runs {
			slices.Sort(r)
		}
		slices.Sort(want)
		if got, _ := MergeU64[struct{}](runs, nil); !slices.Equal(got, want) {
			t.Fatalf("%d runs of %d keys >> %d: MergeU64 mismatch", tc.runs, tc.n, tc.shift)
		}
	}
}

// TestMergeU64PayloadParallel checks the payload merge on the multi-worker
// path (2 × sortMinChunk keys and more under GOMAXPROCS(4)) against
// slices.Sort of the concatenated keys: empty runs, keys crowded into one
// bucket, and equal keys in several runs, whose values must come out in run
// order beside them.
func TestMergeU64PayloadParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(8))
	type pair struct {
		k uint64
		v int32
	}
	for _, tc := range []struct {
		name string
		runs int
		key  func(i int) uint64
	}{
		{"spread", 7, func(int) uint64 { return rng.Uint64() }},
		{"one bucket", 5, func(i int) uint64 { return 1<<40 | uint64(rng.Intn(1<<12)) }},
		{"crowded head", 9, func(i int) uint64 {
			if i%8 != 0 {
				return uint64(rng.Intn(64))
			}
			return rng.Uint64()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := 2*sortMinChunk + 1_000
			if sortWorkers(n) < 2 {
				t.Fatalf("sortWorkers(%d) = %d: the test would not reach the split", n, sortWorkers(n))
			}
			// Run 0 and the last run stay empty.
			runs := make([][]uint64, tc.runs)
			for i := 0; i < n; i++ {
				r := 1 + rng.Intn(tc.runs-2)
				runs[r] = append(runs[r], tc.key(i))
			}
			vals := make([][]int32, tc.runs)
			var want []pair
			for r := range runs {
				slices.Sort(runs[r])
				for i, k := range runs[r] {
					v := int32(r<<24 | i)
					vals[r] = append(vals[r], v)
					want = append(want, pair{k, v})
				}
			}
			wantKeys := make([]uint64, len(want))
			for i, p := range want {
				wantKeys[i] = p.k
			}
			slices.Sort(wantKeys)
			// Stable on the key: equal keys keep run order, the merge's.
			slices.SortStableFunc(want, func(a, b pair) int { return cmp.Compare(a.k, b.k) })
			keys, got := MergeU64(runs, vals)
			if !slices.Equal(keys, wantKeys) {
				t.Fatal("keys differ from slices.Sort of the concatenation")
			}
			for i, p := range want {
				if got[i] != p.v {
					t.Fatalf("position %d (key %#x): value %#x, want %#x", i, p.k, got[i], p.v)
				}
			}
		})
	}
}

// TestRadixSortParallelPath forces the multi-worker scatter path (a
// single-core machine would otherwise only run w=1) and checks stability of
// the digit passes via full ordering.
func TestRadixSortParallelPath(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	keys := make([]uint64, 30_000)
	for i := range keys {
		keys[i] = uint64(rng.Uint32()) // exercises the skip of high passes
	}
	want := slices.Clone(keys)
	slices.Sort(want)
	got := slices.Clone(keys)
	radixSortWorkers(got, make([]uint64, len(got)), 4, 4)
	if !slices.Equal(got, want) {
		t.Fatal("parallel radix mismatch")
	}
	// And uniform input (every pass skipped).
	uni := make([]uint64, 10_000)
	for i := range uni {
		uni[i] = 42
	}
	radixSortWorkers(uni, make([]uint64, len(uni)), 4, 3)
	for _, k := range uni {
		if k != 42 {
			t.Fatal("uniform input corrupted")
		}
	}
}

func BenchmarkSortU64(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint64, 1<<20)
	for i := range keys {
		keys[i] = uint64(rng.Uint32())<<32 | uint64(rng.Uint32())
	}
	work := make([]uint64, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, keys)
		SortU64(work)
	}
}

// BenchmarkBoundaryPopK measures the popK hot path: a large churn of
// updates and batched pops, the per-superstep pattern of Distributed NE.
func BenchmarkBoundaryPopK(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(8))
	vs := make([]uint32, 1<<18)
	ds := make([]int32, len(vs))
	for i := range vs {
		vs[i] = uint32(rng.Intn(n))
		ds[i] = int32(rng.Intn(256))
	}
	bd := NewBoundary(n)
	var scratch []uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd.Reset()
		for j := range vs {
			bd.Update(vs[j], vs[j], ds[j])
			if j&1023 == 1023 {
				scratch = bd.PopK(64, scratch)
			}
		}
		for bd.Len() > 0 {
			scratch = bd.PopK(256, scratch)
		}
	}
}

// BenchmarkBoundaryPopKReference is the map/container-heap predecessor on
// the same workload, so `go test -bench BoundaryPopK` prints the before and
// after side by side.
func BenchmarkBoundaryPopKReference(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(8))
	vs := make([]uint32, 1<<18)
	ds := make([]int32, len(vs))
	for i := range vs {
		vs[i] = uint32(rng.Intn(n))
		ds[i] = int32(rng.Intn(256))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd := newRefBoundary()
		for j := range vs {
			bd.update(vs[j], ds[j])
			if j&1023 == 1023 {
				bd.popK(64)
			}
		}
		for len(bd.score) > 0 {
			bd.popK(256)
		}
	}
}
