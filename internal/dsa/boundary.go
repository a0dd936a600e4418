package dsa

import (
	"cmp"
	"slices"
)

// Boundary is the expansion frontier of (Distributed) Neighbor Expansion: a
// priority queue of ⟨Drest(v), v⟩ pairs supporting lazy score refresh (Alg. 1
// / Alg. 4 of the paper). A popped vertex may be inserted again: whether an
// expanded vertex is worth a second visit is the caller's decision.
//
// Membership state lives in flat slabs indexed by a dense slot per vertex and
// stamped with an epoch counter, so Reset is O(1) and a single Boundary is
// reused across partitions (NE) or supersteps (Distributed NE) without
// reallocation. NE passes the vertex id as its slot; Distributed NE passes a
// compact id from its vertex table, so the slabs are sized by the vertices a
// machine touches and grow with them (Grow). The caller keeps one slot per
// vertex. Scores are refreshed by re-pushing and skipping stale heap entries
// on pop, exactly like the map-based implementation it replaces; the pop
// sequence is the same total order by (Drest, vertex id), whatever the slots.
//
// Invariants:
//   - A slot is live iff mark[s] == epoch; its current score is score[s].
//   - A live slot has a heap entry carrying its current score.
//   - Stale heap entries (score changed, vertex popped or removed) are
//     detected on pop by comparing against score/mark and discarded.
type Boundary struct {
	h     MinHeap4
	score []int32
	mark  []uint32 // mark[s] == epoch ⇔ slot s live in the boundary
	epoch uint32
	size  int
	peak  int
}

// NewBoundary returns a Boundary over slots [0, n).
func NewBoundary(n int) *Boundary {
	return &Boundary{
		score: make([]int32, n),
		mark:  make([]uint32, n),
		epoch: 1,
	}
}

// Grow extends the slabs to cover slots [0, n), amortised like append.
func (b *Boundary) Grow(n int) {
	if n > len(b.score) {
		b.score = append(b.score, make([]int32, n-len(b.score))...)
		b.mark = append(b.mark, make([]uint32, n-len(b.mark))...)
	}
}

// Reset empties the boundary in O(1) by bumping the epoch. The slabs are reused; no allocation happens. After 2^32−1 Resets
// the stamps are zeroed once so stale epochs can never alias, as in
// EpochSet.Clear.
func (b *Boundary) Reset() {
	b.epoch++
	if b.epoch == 0 {
		clear(b.mark)
		b.epoch = 1
	}
	b.h.Reset()
	b.size = 0
}

// Len returns the number of live boundary vertices.
func (b *Boundary) Len() int { return b.size }

// Update inserts vertex v, kept in slot s, with score d, or refreshes its
// score if v is already live. Unchanged scores are not re-pushed.
func (b *Boundary) Update(s, v uint32, d int32) {
	if b.mark[s] == b.epoch {
		if b.score[s] == d {
			return
		}
	} else {
		b.mark[s] = b.epoch
		b.size++
		if b.size > b.peak {
			b.peak = b.size
		}
	}
	b.score[s] = d
	b.h.Push(d, v, s)
}

// Remove takes the vertex in slot s out of the boundary if it is live; its
// heap entries go stale and are skipped on pop.
func (b *Boundary) Remove(s uint32) {
	if b.mark[s] == b.epoch {
		b.mark[s] = 0
		b.size--
	}
}

// PopMin removes and returns the live vertex with the minimal (score, id)
// pair. It returns false when the boundary is empty.
func (b *Boundary) PopMin() (uint32, bool) {
	for b.h.Len() > 0 {
		e := b.h.Pop()
		if b.mark[e.S] != b.epoch || b.score[e.S] != e.K {
			continue // stale entry
		}
		b.mark[e.S] = 0
		b.size--
		return e.V, true
	}
	return 0, false
}

// PopK removes and returns up to k minimum-score vertices. The returned
// slice aliases dst's backing array.
func (b *Boundary) PopK(k int, dst []uint32) []uint32 {
	dst = dst[:0]
	for len(dst) < k {
		v, ok := b.PopMin()
		if !ok {
			break
		}
		dst = append(dst, v)
	}
	return dst
}

// BoundaryEntry is one live vertex of a Snapshot: its id, its slot and its
// score.
type BoundaryEntry struct {
	V     uint32
	S     uint32
	Score int32
}

// Snapshot captures the boundary's logical state: the live (vertex, slot,
// score) entries in ascending vertex order. Because the pop sequence is the
// total order by (score, id) — stale heap entries are skipped — this logical
// state fully determines future behavior; the physical heap layout need not
// be preserved. Used by the checkpoint layer. It reads the live entries off
// the heap, so its cost follows the heap, not the slot range.
func (b *Boundary) Snapshot() []BoundaryEntry {
	var live []BoundaryEntry
	for _, e := range b.h.a {
		if b.mark[e.S] == b.epoch && b.score[e.S] == e.K {
			live = append(live, BoundaryEntry{V: e.V, S: e.S, Score: e.K})
		}
	}
	// A score set twice without a pop in between has two live entries.
	slices.SortFunc(live, func(x, y BoundaryEntry) int { return cmp.Compare(x.V, y.V) })
	return slices.Compact(live)
}

// Restore rebuilds the boundary from a Snapshot, replacing any current
// content. The restored boundary pops the exact same sequence as the
// snapshotted one.
func (b *Boundary) Restore(live []BoundaryEntry, peak int) {
	b.Reset()
	for _, e := range live {
		b.Update(e.S, e.V, e.Score)
	}
	if peak > b.peak {
		b.peak = peak
	}
}

// MemoryFootprint returns the bytes held by the boundary's slabs and the
// heap's peak backing array: 8 bytes per slot plus 12 per peak heap entry.
// Unlike the map-based predecessor there is no per-entry bucket overhead to
// charge.
func (b *Boundary) MemoryFootprint() int64 {
	return int64(cap(b.score))*4 +
		int64(cap(b.mark))*4 +
		b.h.MemoryFootprint()
}

// Peak returns the maximum number of simultaneously live vertices observed.
func (b *Boundary) Peak() int { return b.peak }
