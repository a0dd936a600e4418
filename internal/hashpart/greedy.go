package hashpart

import (
	"context"

	"github.com/distributedne/dne/internal/bitset"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// Oblivious is PowerGraph's greedy streaming heuristic (Gonzalez et al.,
// OSDI'12): edges are streamed and each is placed using the classic four
// rules over the endpoints' replica sets A(u), A(v):
//
//  1. A(u)∩A(v) ≠ ∅            → least-loaded common partition
//  2. both non-empty, disjoint  → least-loaded of A(u)∪A(v)
//  3. exactly one non-empty     → least-loaded of that set
//  4. both empty                → least-loaded partition overall
//
// "Oblivious" refers to each machine running the heuristic over its own
// stream without coordination; we model the single-stream variant, which is
// the stronger (coordinated) end of PowerGraph's reported range. The core
// is a true single pass with |V|-dense replica state.
type Oblivious struct{}

// Stream is the greedy streaming core; it polls ctx every
// partition.CheckEvery edges.
func (o Oblivious) Stream(ctx context.Context, src graph.Source, numParts int, st *partition.Stats) (*partition.Partitioning, error) {
	nv, ne, err := partition.Counts(ctx, src)
	if err != nil {
		return nil, err
	}
	p := partition.New(numParts, ne)
	replicas := partition.NewReplicaSets(numParts, nv)
	sizes := make([]int64, numParts)
	scratch := bitset.New(numParts)
	st.PeakMemBytes += replicas.Bytes() + int64(numParts)*8 + graph.SourceBufferBytes
	err = streamEdges(ctx, src, func(pos int64, u, v graph.Vertex) {
		q := greedyPlace(replicas.Row(u), replicas.Row(v), sizes, scratch)
		p.Owner[pos] = q
		replicas.Set(u, int(q))
		replicas.Set(v, int(q))
		sizes[q]++
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// greedyPlace applies the four PowerGraph rules.
func greedyPlace(au, av bitset.Set, sizes []int64, scratch bitset.Set) int32 {
	if bitset.IntersectInto(scratch, au, av) {
		return leastLoadedIn(scratch, sizes)
	}
	ue, ve := au.Empty(), av.Empty()
	switch {
	case !ue && !ve:
		scratch.Reset()
		scratch.Or(au)
		scratch.Or(av)
		return leastLoadedIn(scratch, sizes)
	case !ue:
		return leastLoadedIn(au, sizes)
	case !ve:
		return leastLoadedIn(av, sizes)
	}
	return leastLoaded(sizes)
}

func leastLoadedIn(s bitset.Set, sizes []int64) int32 {
	best := int32(-1)
	var bestSize int64
	s.ForEach(func(q int) {
		if best == -1 || sizes[q] < bestSize {
			best = int32(q)
			bestSize = sizes[q]
		}
	})
	return best
}

func leastLoaded(sizes []int64) int32 {
	best := int32(0)
	for q := 1; q < len(sizes); q++ {
		if sizes[q] < sizes[best] {
			best = int32(q)
		}
	}
	return best
}

// HybridGinger is PowerLyra's Hybrid + Ginger refinement (Chen et al.,
// EuroSys'15): after a hybrid-cut pass, low-degree vertices are migrated for
// a fixed number of passes to the partition that maximises the Fennel-style
// objective |N(v) ∩ V(Eq)| − γ·(|Vq| + |Eq|·balance), moving each vertex's
// whole low-degree edge group at once. The refinement iterates over vertex
// neighborhoods, so this method stays graph-bound (not stream-capable): the
// registry materializes sources for it.
type HybridGinger struct {
	Seed uint64
	// Threshold is the degree boundary θ of the hybrid-cut phase.
	Threshold int64
	// Passes is the number of Ginger refinement passes.
	Passes int
}

// PartitionCtx runs hybrid-cut plus Ginger refinement; it polls ctx once
// per vertex scan and per re-materialisation pass.
func (hg HybridGinger) PartitionCtx(ctx context.Context, g *graph.Graph, numParts int) (*partition.Partitioning, error) {
	var st partition.Stats
	hy := Hybrid{Seed: hg.Seed, Threshold: hg.Threshold}
	p, err := hy.Stream(ctx, graph.SourceOf(g), numParts, &st)
	if err != nil {
		return nil, err
	}
	// vertLabel[v] = current partition of v's low-degree edge group (only
	// meaningful for low-degree canonical-destination vertices).
	n := int(g.NumVertices())
	vertLabel := make([]int32, n)
	isGrouped := make([]bool, n)
	for v := 0; v < n; v++ {
		if g.Degree(uint32(v)) <= hg.Threshold {
			vertLabel[v] = int32(hashU32(uint32(v), hg.Seed) % uint64(numParts))
			isGrouped[v] = true
		}
	}
	sizes := p.EdgeCounts()
	mean := float64(g.NumEdges()) / float64(numParts)
	gamma := 1.5
	neigh := make([]int64, numParts)
	for pass := 0; pass < hg.Passes; pass++ {
		moved := 0
		for v := 0; v < n; v++ {
			if err := checkAt(ctx, v); err != nil {
				return nil, err
			}
			if !isGrouped[v] {
				continue
			}
			for q := range neigh {
				neigh[q] = 0
			}
			for _, u := range g.Neighbors(uint32(v)) {
				if isGrouped[u] {
					neigh[vertLabel[u]]++
				}
			}
			best := vertLabel[v]
			bestScore := score(neigh[best], sizes[best], mean, gamma)
			for q := 0; q < numParts; q++ {
				if s := score(neigh[q], sizes[q], mean, gamma); s > bestScore {
					best = int32(q)
					bestScore = s
				}
			}
			if best != vertLabel[v] {
				vertLabel[v] = best
				moved++
			}
		}
		// Re-materialise the edge assignment from vertex labels.
		for q := range sizes {
			sizes[q] = 0
		}
		for i, e := range g.Edges() {
			dst := e.V
			if g.Degree(dst) <= hg.Threshold {
				p.Owner[i] = vertLabel[dst]
			} else {
				p.Owner[i] = int32(hashU32(e.U, hg.Seed) % uint64(numParts))
			}
			sizes[p.Owner[i]]++
		}
		if moved == 0 {
			break
		}
	}
	return p, nil
}

func score(coLocated, size int64, mean, gamma float64) float64 {
	return float64(coLocated) - gamma*float64(size)/mean
}
