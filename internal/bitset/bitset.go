// Package bitset provides a small dynamic bitset used to track the set of
// partitions a vertex replica belongs to. Partition counts in this repository
// range from 2 to a few thousand, so a word-array bitset is both compact and
// fast (the paper stresses avoiding hash-map-based metadata, §7.3).
package bitset

import "math/bits"

// Set is a fixed-capacity bitset. The zero value of a Set with no words has
// capacity 0; allocate with New.
type Set struct {
	words []uint64
}

// New returns a set able to hold bits [0, n).
func New(n int) Set {
	return Set{words: make([]uint64, (n+63)/64)}
}

// WordsFor returns the number of uint64 words a set of capacity n uses.
func WordsFor(n int) int { return (n + 63) / 64 }

// Set sets bit i.
func (s Set) Set(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (s Set) Clear(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether bit i is set.
func (s Set) Has(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of set bits.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bit is set.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// IntersectInto writes the intersection of a and b into dst and reports
// whether it is non-empty. dst must have the same word length as a and b.
func IntersectInto(dst, a, b Set) bool {
	nonEmpty := false
	for i := range dst.words {
		w := a.words[i] & b.words[i]
		dst.words[i] = w
		if w != 0 {
			nonEmpty = true
		}
	}
	return nonEmpty
}

// Or sets s |= o.
func (s Set) Or(o Set) {
	for i := range s.words {
		s.words[i] |= o.words[i]
	}
}

// ForEach calls fn for every set bit in ascending order.
func (s Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi<<6 + b)
			w &= w - 1
		}
	}
}

// Reset clears all bits.
func (s Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Words exposes the backing words (read-only use).
func (s Set) Words() []uint64 { return s.words }

// FromWords wraps an existing word slice as a Set view. Mutations through
// the view write to the slice; used to pack many small per-vertex sets into
// one flat slab.
func FromWords(words []uint64) Set { return Set{words: words} }
