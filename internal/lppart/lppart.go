// Package lppart implements the label-propagation vertex partitioners used
// as baselines in Fig. 8: Spinner (Martella et al., ICDE'17) and an
// XtraPuLP-style direct label-propagation partitioner (Slota et al.,
// IPDPS'17). Both produce vertex partitions; the paper converts those to
// edge partitions by assigning each edge to a random endpoint's partition
// (§7.1, after Bourse et al. KDD'14), which VertexToEdge implements.
package lppart

import (
	"context"
	"math/rand"

	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// VertexToEdge converts a vertex partitioning (labels) into an edge
// partitioning by assigning every edge to the partition of one of its
// endpoints, chosen uniformly at random — the conversion used in §7.1.
func VertexToEdge(g *graph.Graph, labels []int32, numParts int, seed int64) *partition.Partitioning {
	rng := rand.New(rand.NewSource(seed))
	p := partition.New(numParts, g.NumEdges())
	for i, e := range g.Edges() {
		if rng.Intn(2) == 0 {
			p.Owner[i] = labels[e.U]
		} else {
			p.Owner[i] = labels[e.V]
		}
	}
	return p
}

// Spinner is the label-propagation vertex partitioner: vertices start with
// random labels and iteratively adopt the label most frequent among their
// neighbors, discounted by a load penalty so partitions stay near capacity
// c·|E|·2/|P| in adjacent-edge weight.
type Spinner struct {
	// Iterations is the number of label-propagation sweeps.
	Iterations int
	// Capacity is the slack c of the load penalty.
	Capacity float64
	Seed     int64
}

// LabelsCtx is the label-propagation core; it polls ctx every
// partition.CheckEvery vertex visits.
func (s Spinner) LabelsCtx(ctx context.Context, g *graph.Graph, numParts int) ([]int32, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	n := int(g.NumVertices())
	labels := make([]int32, n)
	load := make([]int64, numParts) // degree-weighted load per partition
	for v := 0; v < n; v++ {
		labels[v] = int32(rng.Intn(numParts))
		load[labels[v]] += g.Degree(uint32(v))
	}
	maxLoad := s.Capacity * 2 * float64(g.NumEdges()) / float64(numParts)
	counts := make([]int64, numParts)
	for it := 0; it < s.Iterations; it++ {
		moved := 0
		for v := 0; v < n; v++ {
			if v%partition.CheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			for q := range counts {
				counts[q] = 0
			}
			for _, u := range g.Neighbors(uint32(v)) {
				counts[labels[u]]++
			}
			cur := labels[v]
			best := cur
			bestScore := score(counts[cur], load[cur], maxLoad)
			for q := 0; q < numParts; q++ {
				if s := score(counts[q], load[q], maxLoad); s > bestScore {
					best = int32(q)
					bestScore = s
				}
			}
			if best != cur {
				d := g.Degree(uint32(v))
				load[cur] -= d
				load[best] += d
				labels[v] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	return labels, nil
}

// PartitionCtx runs the label propagation under ctx and converts the vertex
// labels to an edge partitioning.
func (s Spinner) PartitionCtx(ctx context.Context, g *graph.Graph, numParts int) (*partition.Partitioning, error) {
	labels, err := s.LabelsCtx(ctx, g, numParts)
	if err != nil {
		return nil, err
	}
	return VertexToEdge(g, labels, numParts, s.Seed+1), nil
}

// score is the Spinner objective: neighbor affinity scaled by remaining
// capacity.
func score(affinity, load int64, maxLoad float64) float64 {
	penalty := 1 - float64(load)/maxLoad
	if penalty < 0 {
		penalty = 0
	}
	return float64(affinity) * penalty
}

// XtraPuLP is a PuLP-style direct vertex partitioner: P BFS-grown seed
// regions give the initial assignment (no random scatter, the property §7.2
// credits it for), followed by constrained label-propagation refinement
// alternating between a vertex-balance phase and an edge-balance phase.
type XtraPuLP struct {
	// Iterations is the number of refinement sweeps.
	Iterations int
	Seed       int64
}

// LabelsCtx is the BFS-seeding + constrained-LP core; it polls ctx every
// partition.CheckEvery vertex visits.
func (x XtraPuLP) LabelsCtx(ctx context.Context, g *graph.Graph, numParts int) ([]int32, error) {
	rng := rand.New(rand.NewSource(x.Seed))
	n := int(g.NumVertices())
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = -1
	}
	// Multi-source BFS from numParts random seeds, growing regions in
	// round-robin so sizes stay even.
	queues := make([][]graph.Vertex, numParts)
	for q := 0; q < numParts; q++ {
		for try := 0; try < 64; try++ {
			v := graph.Vertex(rng.Intn(n))
			if labels[v] == -1 {
				labels[v] = int32(q)
				queues[q] = append(queues[q], v)
				break
			}
		}
	}
	active := true
	visited := 0
	for active {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		active = false
		for q := 0; q < numParts; q++ {
			if len(queues[q]) == 0 {
				continue
			}
			v := queues[q][0]
			queues[q] = queues[q][1:]
			for _, u := range g.Neighbors(v) {
				if labels[u] == -1 {
					labels[u] = int32(q)
					queues[q] = append(queues[q], u)
				}
			}
			if len(queues[q]) > 0 {
				active = true
			}
		}
	}
	// Unreached vertices (disconnected components): hash-assign.
	for v := 0; v < n; v++ {
		if labels[v] == -1 {
			labels[v] = int32(rng.Intn(numParts))
		}
	}
	// Constrained LP refinement: alternate vertex-balanced and
	// edge-balanced passes.
	vLoad := make([]int64, numParts)
	eLoad := make([]int64, numParts)
	for v := 0; v < n; v++ {
		vLoad[labels[v]]++
		eLoad[labels[v]] += g.Degree(uint32(v))
	}
	vCap := int64(1.1 * float64(n) / float64(numParts))
	eCap := int64(1.1 * 2 * float64(g.NumEdges()) / float64(numParts))
	counts := make([]int64, numParts)
	for it := 0; it < x.Iterations; it++ {
		edgePhase := it%2 == 1
		moved := 0
		for v := 0; v < n; v++ {
			visited++
			if visited%partition.CheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			for q := range counts {
				counts[q] = 0
			}
			for _, u := range g.Neighbors(uint32(v)) {
				counts[labels[u]]++
			}
			cur := labels[v]
			best := cur
			for q := int32(0); q < int32(numParts); q++ {
				if q == cur || counts[q] <= counts[best] {
					continue
				}
				if edgePhase {
					if eLoad[q]+g.Degree(uint32(v)) > eCap {
						continue
					}
				} else if vLoad[q]+1 > vCap {
					continue
				}
				best = q
			}
			if best != cur {
				vLoad[cur]--
				vLoad[best]++
				d := g.Degree(uint32(v))
				eLoad[cur] -= d
				eLoad[best] += d
				labels[v] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	return labels, nil
}

// PartitionCtx runs the partitioner under ctx and converts the vertex
// labels to an edge partitioning.
func (x XtraPuLP) PartitionCtx(ctx context.Context, g *graph.Graph, numParts int) (*partition.Partitioning, error) {
	labels, err := x.LabelsCtx(ctx, g, numParts)
	if err != nil {
		return nil, err
	}
	return VertexToEdge(g, labels, numParts, x.Seed+1), nil
}
