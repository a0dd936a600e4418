package dsa

// Boundary is the expansion frontier of (Distributed) Neighbor Expansion: a
// priority queue of ⟨Drest(v), v⟩ pairs supporting lazy score refresh (Alg. 1
// / Alg. 4 of the paper). A popped vertex may be inserted again: whether an
// expanded vertex is worth a second visit is the caller's decision.
//
// All membership state lives in flat slabs indexed by dense vertex id and
// stamped with an epoch counter, so Reset is O(1) and a single Boundary is
// reused across partitions (NE) or supersteps (Distributed NE) without
// reallocation. Scores are refreshed by re-pushing and skipping stale heap
// entries on pop, exactly like the map-based implementation it replaces; the
// pop sequence is the same total order by (Drest, v).
//
// Invariants:
//   - A vertex is live iff mark[v] == epoch; its current score is score[v].
//   - Stale heap entries (score changed, vertex popped or removed) are
//     detected on pop by comparing against score/mark and discarded.
type Boundary struct {
	h     MinHeap4
	score []int32
	mark  []uint32 // mark[v] == epoch ⇔ v live in the boundary
	epoch uint32
	size  int
	peak  int
}

// NewBoundary returns a Boundary over vertex ids [0, n).
func NewBoundary(n int) *Boundary {
	return &Boundary{
		score: make([]int32, n),
		mark:  make([]uint32, n),
		epoch: 1,
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

// Update inserts v with score d, or refreshes its score if v is already
// live. Unchanged scores are not re-pushed.
func (b *Boundary) Update(v uint32, d int32) {
	if b.mark[v] == b.epoch {
		if b.score[v] == d {
			return
		}
	} else {
		b.mark[v] = b.epoch
		b.size++
		if b.size > b.peak {
			b.peak = b.size
		}
	}
	b.score[v] = d
	b.h.Push(d, v)
}

// Remove takes v out of the boundary if it is live; its heap entries go
// stale and are skipped on pop.
func (b *Boundary) Remove(v uint32) {
	if b.mark[v] == b.epoch {
		b.mark[v] = 0
		b.size--
	}
}

// PopMin removes and returns the live vertex with the minimal (score, id)
// pair. It returns false when the boundary is empty.
func (b *Boundary) PopMin() (uint32, bool) {
	for b.h.Len() > 0 {
		e := b.h.Pop()
		if b.mark[e.V] != b.epoch || b.score[e.V] != e.K {
			continue // stale entry
		}
		b.mark[e.V] = 0
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

// BoundaryEntry is one live (vertex, score) pair of a Snapshot.
type BoundaryEntry struct {
	V     uint32
	Score int32
}

// Snapshot captures the boundary's logical state: the live (vertex, score)
// pairs in ascending vertex order. Because the pop sequence is the total
// order by (score, id) — stale heap entries are skipped — this logical state
// fully determines future behavior; the physical heap layout need not be
// preserved. Used by the checkpoint layer.
func (b *Boundary) Snapshot() []BoundaryEntry {
	var live []BoundaryEntry
	for v := range b.mark {
		if b.mark[v] == b.epoch {
			live = append(live, BoundaryEntry{V: uint32(v), Score: b.score[v]})
		}
	}
	return live
}

// Restore rebuilds the boundary from a Snapshot, replacing any current
// content. The restored boundary pops the exact same sequence as the
// snapshotted one.
func (b *Boundary) Restore(live []BoundaryEntry, peak int) {
	b.Reset()
	for _, e := range live {
		b.Update(e.V, e.Score)
	}
	if peak > b.peak {
		b.peak = peak
	}
}

// MemoryFootprint returns the bytes held by the boundary's dense slabs and
// the heap's peak backing array: 8 bytes per vertex id in the domain plus 8
// per peak heap entry. Unlike the map-based predecessor there is no
// per-entry bucket overhead to charge.
func (b *Boundary) MemoryFootprint() int64 {
	return int64(len(b.score))*4 +
		int64(len(b.mark))*4 +
		b.h.MemoryFootprint()
}

// Peak returns the maximum number of simultaneously live vertices observed.
func (b *Boundary) Peak() int { return b.peak }
