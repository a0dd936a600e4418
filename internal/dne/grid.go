package dne

import "slices"

// grid implements the 2D-hash initial distribution of §4 ("Data Structure").
// Machines are arranged in an R×C logical grid (R·C ≥ P, cells folded onto
// machines modulo P). An edge (u,v) is owned by the cell at (h1(u) mod R,
// h2(v) mod C); consequently every edge incident to a vertex x lives in x's
// grid row or column, so the replica set of x is *computed* from its id —
// O(√P) machines — instead of being stored, which is the paper's
// space-efficiency argument for trillion-edge graphs.
type grid struct {
	r, c, p int
	// procs[i*c+j] is the sorted, deduplicated set of machines of grid row i
	// ∪ column j: the replica set of every vertex hashed to cell (i, j),
	// computed once for the r·c cells instead of once per lookup.
	procs [][]int
}

func newGrid(p int) grid {
	r := 1
	for (r+1)*(r+1) <= p {
		r++
	}
	c := (p + r - 1) / r
	g := grid{r: r, c: c, p: p, procs: make([][]int, r*c)}
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

// splitmix64 is a strong, cheap 64-bit mixer (public-domain constants).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashRow(v uint32) uint64 { return splitmix64(uint64(v) ^ 0xDEC0DE) }
func hashCol(v uint32) uint64 { return splitmix64(uint64(v) ^ 0xC0FFEE) }

// edgeOwner returns the machine owning canonical edge (u,v).
func (g grid) edgeOwner(u, v uint32) int { return g.cellOwner(g.row(u), v) }

// row returns the grid row of the edges whose source is u.
func (g grid) row(u uint32) int { return int(hashRow(u) % uint64(g.r)) }

// cellOwner returns the machine owning the edges of grid row i whose target
// is v. A loop over edges sorted by source computes each row once.
func (g grid) cellOwner(i int, v uint32) int {
	j := int(hashCol(v) % uint64(g.c))
	return (i*g.c + j) % g.p
}

// vertexProcs returns the sorted, deduplicated set of machines that can hold
// edges incident to x (x's grid row ∪ column). The slice is shared: callers
// must not modify it.
func (g grid) vertexProcs(x uint32) []int {
	i := int(hashRow(x) % uint64(g.r))
	j := int(hashCol(x) % uint64(g.c))
	return g.procs[i*g.c+j]
}
