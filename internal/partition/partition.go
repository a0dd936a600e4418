// Package partition defines the result type shared by all edge partitioners
// and the quality metrics used throughout the paper's evaluation: replication
// factor (Eq. 1), edge balance and vertex balance (§7.6).
package partition

import (
	"fmt"

	"github.com/distributedne/dne/internal/bitset"
	"github.com/distributedne/dne/internal/graph"
)

// None marks an unassigned edge.
const None int32 = -1

// Partitioning is a |P|-way edge partitioning of a graph: Owner[i] is the
// partition id of the i-th canonical edge of the graph it was computed for.
type Partitioning struct {
	NumParts int
	Owner    []int32 // len == g.NumEdges(); values in [0,NumParts) or None
}

// New returns a Partitioning with every edge unassigned.
func New(numParts int, numEdges int64) *Partitioning {
	owner := make([]int32, numEdges)
	for i := range owner {
		owner[i] = None
	}
	return &Partitioning{NumParts: numParts, Owner: owner}
}

// Validate checks that p is a complete, in-range assignment for g.
func (p *Partitioning) Validate(g *graph.Graph) error {
	if int64(len(p.Owner)) != g.NumEdges() {
		return fmt.Errorf("partition: owner length %d != |E| %d", len(p.Owner), g.NumEdges())
	}
	for i, o := range p.Owner {
		if o == None {
			return fmt.Errorf("partition: edge %d unassigned", i)
		}
		if o < 0 || int(o) >= p.NumParts {
			return fmt.Errorf("partition: edge %d has out-of-range owner %d", i, o)
		}
	}
	return nil
}

// EdgeCounts returns |Ep| for every partition p.
func (p *Partitioning) EdgeCounts() []int64 {
	counts := make([]int64, p.NumParts)
	for _, o := range p.Owner {
		if o != None {
			counts[o]++
		}
	}
	return counts
}

// Quality bundles the paper's partitioning-quality metrics.
type Quality struct {
	ReplicationFactor float64 // Eq. (1): (1/|V|) Σp |V(Ep)|
	VertexCuts        int64   // Σp |V(Ep)| − |covered vertices|
	EdgeBalance       float64 // max |Ep| / mean |Ep|
	VertexBalance     float64 // max |V(Ep)| / mean |V(Ep)|
	MaxPartEdges      int64
	Replicas          int64 // Σp |V(Ep)|
}

// Measure computes Quality for p over g. Unassigned edges are ignored (use
// Validate first if completeness matters).
func (p *Partitioning) Measure(g *graph.Graph) Quality {
	slab, words, edgeCounts := p.replicaSlab(g)
	return tally(slab, int(g.NumVertices()), words, edgeCounts)
}

// tally finishes a quality measurement: slab holds n rows of words u64s,
// row v the set of partitions covering vertex v, and edgeCounts holds |Ep|.
func tally(slab []uint64, n, words int, edgeCounts []int64) Quality {
	var replicas, covered int64
	vertCounts := make([]int64, len(edgeCounts))
	for v := 0; v < n; v++ {
		row := bitset.FromWords(slab[v*words : (v+1)*words])
		c := row.Count()
		if c > 0 {
			covered++
		}
		replicas += int64(c)
		row.ForEach(func(q int) { vertCounts[q]++ })
	}
	q := Quality{Replicas: replicas, VertexCuts: replicas - covered}
	if n > 0 {
		q.ReplicationFactor = float64(replicas) / float64(n)
	}
	q.EdgeBalance, q.MaxPartEdges = balance(edgeCounts)
	q.VertexBalance, _ = balance(vertCounts)
	return q
}

// balance returns max/mean and the max of xs (1,0 for all-zero input).
func balance(xs []int64) (float64, int64) {
	var sum, max int64
	for _, x := range xs {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum == 0 {
		return 1, 0
	}
	mean := float64(sum) / float64(len(xs))
	return float64(max) / mean, max
}
