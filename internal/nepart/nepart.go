// Package nepart implements sequential Neighbor Expansion (NE) from Zhang et
// al., "Graph Edge Partitioning via Neighborhood Heuristic", KDD 2017 — the
// offline single-machine algorithm that Distributed NE parallelises. It is
// the quality gold standard of Table 4 (best RF, slowest runtime).
package nepart

import (
	"context"
	"errors"
	"math/rand"

	"github.com/distributedne/dne/internal/dsa"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// NE is the sequential neighbor-expansion partitioner.
type NE struct {
	// Alpha is the imbalance factor (default 1.1).
	Alpha float64
	Seed  int64
}

// PartitionCtx grows the partitions one at a time: each starts from a random
// vertex and repeatedly expands the boundary vertex with minimal remaining
// degree, allocating its free edges plus any two-hop edges that fall inside
// the partition's vertex set (Condition (5)). It polls ctx every
// partition.CheckEvery allocated edges.
func (ne NE) PartitionCtx(ctx context.Context, g *graph.Graph, numParts int) (*partition.Partitioning, error) {
	alpha := ne.Alpha
	if alpha == 0 {
		alpha = 1.1
	}
	if alpha < 1 {
		return nil, errors.New("nepart: alpha must be >= 1")
	}
	totalE := g.NumEdges()
	p := partition.New(numParts, totalE)
	capEdges := int64(alpha * float64(totalE) / float64(numParts))
	if capEdges < 1 {
		capEdges = 1
	}
	rng := rand.New(rand.NewSource(ne.Seed))

	n := int(g.NumVertices())
	drest := make([]int32, n)
	for v := 0; v < n; v++ {
		drest[v] = int32(g.Degree(uint32(v)))
	}
	// inPart[v] == current partition epoch iff v ∈ V(Ep) being built.
	inPart := make([]int32, n)
	for v := range inPart {
		inPart[v] = -1
	}
	var allocated int64
	// freeCursor scans for seed vertices with remaining edges.
	freeCursor := 0

	// The boundary — a lazy min-heap keyed by remaining degree — is one
	// dense epoch-stamped structure reused across all partitions (Reset is
	// O(1)), shared with Distributed NE via internal/dsa.
	bnd := dsa.NewBoundary(n)

	for q := 0; q < numParts && allocated < totalE; q++ {
		qi := int32(q)
		var count int64
		bnd.Reset()
		// Last partition absorbs everything that remains.
		budget := capEdges
		if q == numParts-1 {
			budget = totalE - allocated
		}
		for count < budget && allocated < totalE {
			if allocated%partition.CheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			var v graph.Vertex
			if pv, ok := bnd.PopMin(); ok {
				v = pv
			} else {
				sv, ok := seedVertex(g, p.Owner, &freeCursor, rng)
				if !ok {
					break
				}
				v = sv
			}
			inPart[v] = qi
			// One-hop allocation.
			nb := g.Neighbors(v)
			ie := g.IncidentEdges(v)
			for s, u := range nb {
				ei := ie[s]
				if p.Owner[ei] != partition.None {
					continue
				}
				p.Owner[ei] = qi
				count++
				allocated++
				drest[v]--
				drest[u]--
				if inPart[u] != qi {
					inPart[u] = qi
					bnd.Update(u, u, drest[u])
					// Two-hop: u's free edges to vertices already in V(Eq).
					unb := g.Neighbors(u)
					uie := g.IncidentEdges(u)
					for t, w := range unb {
						wi := uie[t]
						if p.Owner[wi] != partition.None || inPart[w] != qi || w == v {
							continue
						}
						p.Owner[wi] = qi
						count++
						allocated++
						drest[u]--
						drest[w]--
					}
				}
			}
		}
	}
	// Any remainder (only when the last partition's budget arithmetic leaves
	// stragglers) goes to the last partition.
	if allocated < totalE {
		for i := range p.Owner {
			if p.Owner[i] == partition.None {
				p.Owner[i] = int32(numParts - 1)
			}
		}
	}
	return p, nil
}

// seedVertex returns a vertex with at least one unallocated edge.
func seedVertex(g *graph.Graph, owner []int32, cursor *int, rng *rand.Rand) (graph.Vertex, bool) {
	m := len(owner)
	if m == 0 {
		return 0, false
	}
	start := (*cursor + rng.Intn(m)) % m
	for k := 0; k < m; k++ {
		i := (start + k) % m
		if owner[i] == partition.None {
			*cursor = i
			e := g.Edge(int64(i))
			if rng.Intn(2) == 0 {
				return e.U, true
			}
			return e.V, true
		}
	}
	return 0, false
}
