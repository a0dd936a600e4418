package streampart

import (
	"context"
	"math"

	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// Fennel is FENNEL-based streaming *edge* partitioning (§2.2 cites
// Tsourakakis et al., WSDM'14 via Bourse et al., KDD'14 for the edge-
// partitioning adaptation). Each edge (u,v) is placed on the partition q
// maximizing
//
//	score(q) = g(u,q) + g(v,q) − γ·ν·size_q^(γ−1)/|E|^(γ−1)·…
//
// concretely the interpolated objective of Bourse et al.: the replication
// gain of reusing partitions that already host an endpoint, minus the
// marginal balance cost c(size_q+1) − c(size_q) of the convex load cost
// c(x) = ν·x^γ. Gamma defaults to the FENNEL paper's 1.5 and ν is chosen so
// the cost gradient is O(1) at the balanced load |E|/|P|. The core is a
// true single pass over the source with |V|-dense replica state.
type Fennel struct {
	// Gamma is the load-cost exponent γ > 1 (default 1.5).
	Gamma float64
}

// Stream is the streaming core; it polls ctx every partition.CheckEvery
// edges.
func (f Fennel) Stream(ctx context.Context, src graph.Source, numParts int, st *partition.Stats) (*partition.Partitioning, error) {
	gamma := f.Gamma
	if gamma == 0 {
		gamma = 1.5
	}
	nv, ne, err := partition.Counts(ctx, src)
	if err != nil {
		return nil, err
	}
	p := partition.New(numParts, ne)
	replicas := partition.NewReplicaSets(numParts, nv)
	sizes := make([]int64, numParts)
	// ν normalizes the marginal cost so that at the balanced load
	// m = |E|/|P| the gradient γ·ν·m^(γ−1) equals 1 — one replica's worth.
	mean := float64(ne) / float64(numParts)
	if mean < 1 {
		mean = 1
	}
	nu := 1 / (gamma * math.Pow(mean, gamma-1))
	st.PeakMemBytes += replicas.Bytes() + int64(numParts)*8 + graph.SourceBufferBytes

	err = partition.EachEdge(ctx, src, func(pos int64, k uint64) error {
		u, v := graph.Vertex(k>>32), graph.Vertex(k)
		ru, rv := replicas.Row(u), replicas.Row(v)
		best := int32(0)
		bestScore := math.Inf(-1)
		for q := 0; q < numParts; q++ {
			var gain float64
			if ru.Has(q) {
				gain++
			}
			if rv.Has(q) {
				gain++
			}
			// Marginal convex cost of adding one edge to q:
			// ν·((s+1)^γ − s^γ) ≈ γ·ν·s^(γ−1), computed exactly.
			s := float64(sizes[q])
			cost := nu * (math.Pow(s+1, gamma) - math.Pow(s, gamma))
			if sc := gain - cost; sc > bestScore {
				bestScore = sc
				best = int32(q)
			}
		}
		assign(p, replicas, sizes, pos, u, v, best)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
