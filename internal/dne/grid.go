package dne

import (
	"math/bits"
	"slices"

	"github.com/distributedne/dne/internal/dsa"
)

// grid implements the 2D-hash initial distribution of §4 ("Data Structure").
// Machines are arranged in an R×C logical grid (R·C ≥ P, cells folded onto
// machines modulo P). An edge (u,v) is owned by the cell at (h1(u) mod R,
// h2(v) mod C); consequently every edge incident to a vertex x lives in x's
// grid row or column, so the replica set of x is *computed* from its id —
// O(√P) machines — instead of being stored, which is the paper's
// space-efficiency argument for trillion-edge graphs.
type grid struct {
	cellHash
	// procs[i*c+j] is the sorted, deduplicated set of machines of grid row i
	// ∪ column j: the replica set of every vertex hashed to cell (i, j),
	// computed once for the r·c cells instead of once per lookup.
	procs [][]int
}

// cellHash is the grid's hash alone: its shape and its two divisors, which
// is all that names the machine owning an edge. Routing keys (keyRouter:
// the shuffle, and rank 0's check of the collected result) needs nothing
// more, so it builds no replica sets.
//
// The hash runs on every routed edge, every multicast and every collected
// key, so it divides by nothing: mod R and mod C multiply by precomputed
// reciprocals (divisor, exact for every 64-bit hash), and the fold mod P is
// one conditional subtract, exact because R·C < 2P.
type cellHash struct {
	r, c, p int
	rdiv    divisor
	cdiv    divisor
}

func newCellHash(p int) cellHash {
	r := 1
	for (r+1)*(r+1) <= p {
		r++
	}
	c := (p + r - 1) / r
	return cellHash{r: r, c: c, p: p, rdiv: newDivisor(uint64(r)), cdiv: newDivisor(uint64(c))}
}

func newGrid(p int) grid {
	g := grid{cellHash: newCellHash(p)}
	r, c := g.r, g.c
	g.procs = make([][]int, r*c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			set := make([]int, 0, r+c)
			for jj := 0; jj < c; jj++ {
				set = append(set, (i*c+jj)%p)
			}
			for ii := 0; ii < r; ii++ {
				set = append(set, (ii*c+j)%p)
			}
			slices.Sort(set)
			g.procs[i*c+j] = slices.Compact(set)
		}
	}
	return g
}

// divisor reduces 64-bit words modulo a fixed d ≥ 1 without dividing
// (Lemire, Kaser & Kurz, "Faster Remainder by Direct Computation", 2019):
// with the 128-bit m = ⌊(2^128−1)/d⌋ + 1, a mod d is the high word of the
// 192-bit product (m·a mod 2^128)·d. 128 fractional bits make it exact for
// every 64-bit a and every d; d = 1 wraps m to 0, which yields 0.
type divisor struct {
	d, mhi, mlo uint64
}

func newDivisor(d uint64) divisor {
	hi, rem := bits.Div64(0, ^uint64(0), d)
	lo, _ := bits.Div64(rem, ^uint64(0), d)
	lo, carry := bits.Add64(lo, 1, 0)
	return divisor{d: d, mhi: hi + carry, mlo: lo}
}

// mod returns a mod d.
func (v divisor) mod(a uint64) uint64 {
	// f = m·a mod 2^128, the fractional part of a/d in 128 fixed-point bits.
	fhi, flo := bits.Mul64(v.mlo, a)
	fhi += v.mhi * a
	// The high word of f·d: the low word's product carries into the high's.
	carryIn, _ := bits.Mul64(flo, v.d)
	hi, lo := bits.Mul64(fhi, v.d)
	_, carry := bits.Add64(lo, carryIn, 0)
	return hi + carry
}

func hashRow(v uint32) uint64 { return dsa.SplitMix64(uint64(v) ^ 0xDEC0DE) }
func hashCol(v uint32) uint64 { return dsa.SplitMix64(uint64(v) ^ 0xC0FFEE) }

// edgeOwner returns the machine owning canonical edge (u,v).
func (g *cellHash) edgeOwner(u, v uint32) int { return g.cellOwner(g.row(u), v) }

// row returns the grid row of the edges whose source is u.
func (g *cellHash) row(u uint32) int { return int(g.rdiv.mod(hashRow(u))) }

// col returns the grid column of the edges whose target is v.
func (g *cellHash) col(v uint32) int { return int(g.cdiv.mod(hashCol(v))) }

// cellOwner returns the machine owning the edges of grid row i whose target
// is v. A loop over edges sorted by source computes each row once
// (keyRouter).
func (g *cellHash) cellOwner(i int, v uint32) int {
	q := i*g.c + g.col(v)
	if q >= g.p {
		q -= g.p
	}
	return q
}

// vertexProcs returns the sorted, deduplicated set of machines that can hold
// edges incident to x (x's grid row ∪ column). The slice is shared: callers
// must not modify it.
func (g *grid) vertexProcs(x uint32) []int {
	return g.procs[g.row(x)*g.c+g.col(x)]
}

// keyRouter names the owning machine of each key of an ascending packed
// edge list, hashing the grid row once per source instead of once per key.
type keyRouter struct {
	h   *cellHash
	src uint64 // the source whose row is cached; ^0 before the first key
	row int
}

func newKeyRouter(h *cellHash) keyRouter { return keyRouter{h: h, src: ^uint64(0)} }

// owner returns the machine owning packed edge k.
func (kr *keyRouter) owner(k uint64) int {
	if k>>32 != kr.src {
		kr.src, kr.row = k>>32, kr.h.row(uint32(k>>32))
	}
	return kr.h.cellOwner(kr.row, uint32(k))
}
