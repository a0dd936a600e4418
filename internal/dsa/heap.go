// Package dsa provides the dense, allocation-free data structures shared by
// the partitioners' hot paths: a monomorphic 4-ary min-heap over
// ⟨score, vertex⟩ pairs, an epoch-stamped dense boundary (the expansion
// frontier of NE and Distributed NE), reusable epoch-stamped vertex sets,
// parallel radix sorts for the primitive slices every CSR build funnels
// through, and the SplitMix64 hash behind every hash-derived owner.
//
// The paper's scalability argument (§4, §7.3) rests on per-machine state
// being flat arrays indexed by dense vertex ids rather than hash tables;
// this package is that argument applied to the reproduction's own inner
// loops. All structures are deterministic: identical call sequences produce
// identical observable results, bit for bit, which the partitioners rely on
// for seeded reproducibility.
package dsa

// KV is a ⟨key, vertex⟩ heap entry, carrying the slot its owner keeps the
// vertex's state in. The heap order is ascending by (K, V); the vertex id
// tie-break makes every pop sequence over distinct entries a total order,
// which keeps seeded partitioner runs reproducible. S takes no part in the
// order.
type KV struct {
	K int32
	V uint32
	S uint32
}

// kvLess is the single comparison the heap is specialized to.
func kvLess(a, b KV) bool {
	return a.K < b.K || (a.K == b.K && a.V < b.V)
}

// MinHeap4 is a monomorphic 4-ary min-heap of KV entries. Compared with
// container/heap it avoids interface boxing, indirect comparator calls, and
// per-push allocations; the 4-ary layout halves the tree depth, trading two
// extra sibling comparisons per level for better cache behaviour on the
// sift-down path. The zero value is an empty heap.
type MinHeap4 struct {
	a       []KV
	peakCap int
}

// Len returns the number of entries (including stale ones pushed by lazy
// decrease-key users).
func (h *MinHeap4) Len() int { return len(h.a) }

// Reset empties the heap, retaining capacity.
func (h *MinHeap4) Reset() {
	if cap(h.a) > h.peakCap {
		h.peakCap = cap(h.a)
	}
	h.a = h.a[:0]
}

// Push inserts the pair ⟨k, v⟩ with v's slot s.
func (h *MinHeap4) Push(k int32, v, s uint32) {
	h.a = append(h.a, KV{K: k, V: v, S: s})
	a := h.a
	i := len(a) - 1
	e := a[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !kvLess(e, a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = e
}

// Pop removes and returns the minimum entry. It panics on an empty heap,
// matching container/heap.
func (h *MinHeap4) Pop() KV {
	a := h.a
	top := a[0]
	n := len(a) - 1
	e := a[n]
	h.a = a[:n]
	if n > 0 {
		h.siftDown(e)
	}
	return top
}

// siftDown places e starting from the root of the (already shrunk) heap.
func (h *MinHeap4) siftDown(e KV) {
	a := h.a
	n := len(a)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if kvLess(a[j], a[m]) {
				m = j
			}
		}
		if !kvLess(a[m], e) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = e
}

// MemoryFootprint returns the bytes held by the heap's backing array at its
// peak capacity (12 bytes per entry).
func (h *MinHeap4) MemoryFootprint() int64 {
	c := cap(h.a)
	if h.peakCap > c {
		c = h.peakCap
	}
	return int64(c) * 12
}
