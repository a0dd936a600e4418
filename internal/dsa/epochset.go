package dsa

// EpochSet is a reusable set over dense ids [0, n) with O(1) Clear: instead
// of zeroing the slab, Clear bumps an epoch counter and membership is
// "stamp equals current epoch". It replaces the per-superstep
// map[Vertex]struct{} allocations in the expansion supersteps.
//
// The epoch is a uint32; after 2^32−1 Clears the stamps are zeroed once to
// avoid stale-epoch aliasing, keeping Clear amortized O(1) forever.
type EpochSet struct {
	stamp []uint32
	epoch uint32
}

// NewEpochSet returns an empty set over [0, n).
func NewEpochSet(n int) *EpochSet {
	return &EpochSet{stamp: make([]uint32, n), epoch: 1}
}

// Grow extends the set's domain to [0, n), amortised like append.
func (s *EpochSet) Grow(n int) {
	if n > len(s.stamp) {
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
	}
}

// Clear empties the set.
func (s *EpochSet) Clear() {
	s.epoch++
	if s.epoch == 0 { // wrapped: old stamps would alias the new epoch
		clear(s.stamp)
		s.epoch = 1
	}
}

// Add inserts v and reports whether it was newly added.
func (s *EpochSet) Add(v uint32) bool {
	if s.stamp[v] == s.epoch {
		return false
	}
	s.stamp[v] = s.epoch
	return true
}

// Len returns the domain size n.
func (s *EpochSet) Len() int { return len(s.stamp) }

// MemoryFootprint returns the bytes held by the stamp slab.
func (s *EpochSet) MemoryFootprint() int64 { return int64(cap(s.stamp)) * 4 }
