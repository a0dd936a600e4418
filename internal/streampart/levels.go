package streampart

import "math/bits"

// hdrfEps is the ε of HDRF's C_bal denominator.
const hdrfEps = 1.0

// sizeLevels is HDRF's view of the partition sizes: the distinct sizes
// present, as levels linked in ascending size order, each holding the mask
// of its partitions and its cached C_bal. The levels live in a fixed pool of
// P slots (at most P sizes can be present at once), so moving a partition up
// one size is O(1) — plus an O(levels) C_bal refresh when maxSize or minSize
// moves — and the storage is allocated once.
type sizeLevels struct {
	numParts int
	words    int
	lambda   float64

	lv    []level  // slot pool
	masks []uint64 // slot s's partitions: masks[s*words : (s+1)*words]
	of    []int32  // partition → slot of its level
	free  []int32  // unused slots, as a stack

	head, tail       int32 // slots of the smallest and the largest size
	minSize, maxSize int64
}

// level is one present size.
type level struct {
	size       int64
	bal        float64 // C_bal of a partition at this size
	n          int32   // partitions at this size
	prev, next int32   // neighbouring sizes, −1 at the ends
}

// newSizeLevels returns the levels of numParts empty partitions: one level,
// size 0, holding them all.
func newSizeLevels(numParts int, lambda float64) *sizeLevels {
	words := (numParts + 63) / 64
	l := &sizeLevels{
		numParts: numParts,
		words:    words,
		lambda:   lambda,
		lv:       make([]level, numParts),
		masks:    make([]uint64, numParts*words),
		of:       make([]int32, numParts),
		free:     make([]int32, 0, numParts),
	}
	for s := numParts - 1; s > 0; s-- {
		l.free = append(l.free, int32(s))
	}
	l.lv[0] = level{n: int32(numParts), prev: -1, next: -1}
	for q := 0; q < numParts; q++ {
		l.masks[q>>6] |= 1 << (uint(q) & 63)
	}
	l.refresh()
	return l
}

// Bytes is the accounted size of the level storage.
func (l *sizeLevels) Bytes() int64 {
	const levelBytes = 8 + 8 + 3*4
	return int64(len(l.lv))*levelBytes + int64(len(l.masks))*8 + int64(len(l.of)+cap(l.free))*4
}

// balOf is C_bal at size s, the expression of the per-partition scoring.
func (l *sizeLevels) balOf(s int64) float64 {
	return l.lambda * float64(l.maxSize-s) / (hdrfEps + float64(l.maxSize-l.minSize))
}

// refresh recomputes every level's C_bal; needed only when maxSize or
// minSize moved.
func (l *sizeLevels) refresh() {
	l.minSize, l.maxSize = l.lv[l.head].size, l.lv[l.tail].size
	for s := l.head; s >= 0; s = l.lv[s].next {
		l.lv[s].bal = l.balOf(l.lv[s].size)
	}
}

// argmax returns the partition HDRF scores highest for an edge whose
// endpoints have replica rows ru and rv, the lowest q on a tie. repU and
// repV are the C_rep terms 2−θu and 2−θv.
//
// The partitions of one mask word split into four replica classes —
// A(u)∩A(v), A(u)\A(v), A(v)\A(u) and neither — each with a constant C_rep.
// C_bal does not increase with size, so a class's best partitions sit on the
// first level that meets it. Each class walks the levels from the smallest
// size and stops once a level scores below the best so far or the class's
// members are used up; it walks on past a level that scores equal, since
// C_bal can round away against C_rep (at tiny λ) and a lower q may sit on a
// larger size. Words are taken in ascending q.
func (l *sizeLevels) argmax(ru, rv []uint64, repU, repV float64) int32 {
	// C_rep summed as the per-partition scoring does: 0 + (2−θu) + (2−θv).
	rep := [4]float64{repU + repV, repU, repV, 0}
	best, bestQ := -1.0, int32(0)
	w := l.words
	for i, a := range ru {
		b := rv[i]
		all := ^uint64(0)
		if rest := l.numParts - i<<6; rest < 64 {
			all = 1<<rest - 1
		}
		classes := [4]uint64{a & b, a &^ b, b &^ a, all &^ (a | b)}
		for c, cm := range classes {
			for s := l.head; cm != 0; s = l.lv[s].next {
				sc := rep[c] + l.lv[s].bal
				if sc < best {
					break
				}
				x := cm & l.masks[int(s)*w+i]
				if x == 0 {
					continue
				}
				if q := int32(i<<6 + bits.TrailingZeros64(x)); sc > best || q < bestQ {
					best, bestQ = sc, q
				}
				cm &^= x
			}
		}
	}
	return bestQ
}

// grow moves partition q up one size: onto the next level when that holds
// size+1, in place when q is alone on its level, else onto a new level
// linked right after its old one. C_bal is computed for a level whose size
// is new and, when maxSize or minSize moved, refreshed for all levels.
func (l *sizeLevels) grow(q int32) {
	s := l.of[q]
	lv := &l.lv[s]
	up := lv.size + 1
	word, bit := int(q)>>6, uint64(1)<<(uint(q)&63)
	switch nx := lv.next; {
	case nx >= 0 && l.lv[nx].size == up:
		l.masks[int(s)*l.words+word] &^= bit
		l.masks[int(nx)*l.words+word] |= bit
		l.lv[nx].n++
		l.of[q] = nx
		if lv.n--; lv.n == 0 {
			l.unlink(s)
		}
	case lv.n == 1:
		lv.size = up
		lv.bal = l.balOf(up)
	default:
		f := l.free[len(l.free)-1]
		l.free = l.free[:len(l.free)-1]
		l.lv[f] = level{size: up, bal: l.balOf(up), n: 1, prev: s, next: nx}
		if nx >= 0 {
			l.lv[nx].prev = f
		} else {
			l.tail = f
		}
		lv.next = f
		lv.n--
		l.masks[int(s)*l.words+word] &^= bit
		l.masks[int(f)*l.words+word] |= bit
		l.of[q] = f
	}
	if l.lv[l.head].size != l.minSize || l.lv[l.tail].size != l.maxSize {
		l.refresh()
	}
}

// unlink drops the empty level in slot s and returns the slot to the pool.
func (l *sizeLevels) unlink(s int32) {
	prev, next := l.lv[s].prev, l.lv[s].next
	if prev >= 0 {
		l.lv[prev].next = next
	} else {
		l.head = next
	}
	if next >= 0 {
		l.lv[next].prev = prev
	} else {
		l.tail = prev
	}
	l.free = append(l.free, s)
}
