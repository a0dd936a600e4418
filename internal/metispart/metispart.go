// Package metispart is a multilevel vertex partitioner in the METIS family
// (Karypis & Kumar), standing in for ParMETIS in the paper's comparisons. It
// performs heavy-edge-matching coarsening, greedy region-growing initial
// partitioning on the coarsest graph, and boundary Kernighan–Lin/FM
// refinement during uncoarsening. The vertex partition is converted to an
// edge partition by random-endpoint assignment (§7.1), like the other
// vertex-partitioner baselines.
//
// Like real METIS it replicates the graph at every coarsening level, which is
// exactly the memory behaviour Fig. 9 penalises.
package metispart

import (
	"context"
	"math/rand"

	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/lppart"
	"github.com/distributedne/dne/internal/partition"
)

// METIS is the multilevel vertex partitioner.
type METIS struct {
	// CoarsestSize stops coarsening when the graph has at most this many
	// vertices (default 32·numParts).
	CoarsestSize int
	// RefinePasses per uncoarsening level (default 4).
	RefinePasses int
	Seed         int64

	// memLevels records the analytic bytes of every level of the last run,
	// for the Fig-9 memory accounting.
	memLevels int64
}

// MemBytes returns the analytic memory footprint (all coarsening levels) of
// the last PartitionCtx call.
func (m *METIS) MemBytes() int64 { return m.memLevels }

// level is a coarsened weighted graph.
type level struct {
	n      int
	adjOff []int64
	adjTo  []int32
	adjW   []int64 // multi-edge weights
	vertW  []int64 // coarse vertex weights (vertex counts)
	// fine2coarse maps the finer level's vertices to this level's.
	fine2coarse []int32
}

// PartitionCtx is the multilevel core; it polls ctx between coarsening
// levels and refinement passes (each is a bounded amount of work).
func (m *METIS) PartitionCtx(ctx context.Context, g *graph.Graph, numParts int) (*partition.Partitioning, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	coarsest := m.CoarsestSize
	if coarsest <= 0 {
		coarsest = 32 * numParts
	}
	passes := m.RefinePasses
	if passes <= 0 {
		passes = 4
	}
	rng := rand.New(rand.NewSource(m.Seed))

	// Level 0 from the input graph.
	levels := []*level{baseLevel(g)}
	m.memLevels = levelBytes(levels[0])
	// Cap the coarse-vertex weight like real METIS (maxvwgt): without it,
	// heavy-edge matching on a skewed graph folds the hub's whole
	// neighborhood into one immovable super-vertex and the initial
	// partition degenerates to "everything with the hub".
	maxW := int64(1.5 * float64(g.NumVertices()) / float64(coarsest))
	if maxW < 2 {
		maxW = 2
	}
	for levels[len(levels)-1].n > coarsest {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cur := levels[len(levels)-1]
		next := coarsen(cur, rng, maxW)
		if next.n > cur.n*97/100 {
			break // diminishing returns: matching almost fully blocked
		}
		levels = append(levels, next)
		m.memLevels += levelBytes(next)
	}

	// Initial partitioning on the coarsest level: greedy region growing by
	// vertex weight.
	top := levels[len(levels)-1]
	labels := initialPartition(top, numParts, rng)

	// Uncoarsen with refinement.
	for li := len(levels) - 1; li > 0; li-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		refine(levels[li], labels, numParts, passes)
		fine := levels[li-1]
		fineLabels := make([]int32, fine.n)
		for v := 0; v < fine.n; v++ {
			fineLabels[v] = labels[levels[li].fine2coarse[v]]
		}
		labels = fineLabels
	}
	refine(levels[0], labels, numParts, passes)
	return lppart.VertexToEdge(g, labels, numParts, m.Seed+1), nil
}

func baseLevel(g *graph.Graph) *level {
	n := int(g.NumVertices())
	l := &level{n: n}
	l.adjOff = make([]int64, n+1)
	total := int64(0)
	for v := 0; v < n; v++ {
		total += g.Degree(graph.Vertex(v))
		l.adjOff[v+1] = total
	}
	l.adjTo = make([]int32, total)
	l.adjW = make([]int64, total)
	for v := 0; v < n; v++ {
		for s, u := range g.Neighbors(graph.Vertex(v)) {
			l.adjTo[l.adjOff[v]+int64(s)] = int32(u)
			l.adjW[l.adjOff[v]+int64(s)] = 1
		}
	}
	l.vertW = make([]int64, n)
	for v := range l.vertW {
		l.vertW[v] = 1
	}
	return l
}

func levelBytes(l *level) int64 {
	return int64(len(l.adjOff))*8 + int64(len(l.adjTo))*4 +
		int64(len(l.adjW))*8 + int64(len(l.vertW))*8 + int64(len(l.fine2coarse))*4
}

// coarsen contracts a heavy-edge matching of l; pairs whose combined vertex
// weight would exceed maxW are not matched (METIS's maxvwgt rule).
func coarsen(l *level, rng *rand.Rand, maxW int64) *level {
	match := make([]int32, l.n)
	for v := range match {
		match[v] = -1
	}
	order := rng.Perm(l.n)
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		best := int32(-1)
		var bestW int64
		for s := l.adjOff[v]; s < l.adjOff[v+1]; s++ {
			u := l.adjTo[s]
			if int(u) != v && match[u] == -1 && l.adjW[s] > bestW &&
				l.vertW[v]+l.vertW[u] <= maxW {
				best = u
				bestW = l.adjW[s]
			}
		}
		if best != -1 {
			match[v] = best
			match[best] = int32(v)
		} else {
			match[v] = int32(v)
		}
	}
	// Assign coarse ids.
	coarseID := make([]int32, l.n)
	for v := range coarseID {
		coarseID[v] = -1
	}
	nc := int32(0)
	for v := 0; v < l.n; v++ {
		if coarseID[v] != -1 {
			continue
		}
		coarseID[v] = nc
		if m := match[v]; int(m) != v {
			coarseID[m] = nc
		}
		nc++
	}
	// Build the coarse adjacency with weight aggregation.
	type cedge struct {
		to int32
		w  int64
	}
	adj := make([][]cedge, nc)
	for v := 0; v < l.n; v++ {
		cv := coarseID[v]
		for s := l.adjOff[v]; s < l.adjOff[v+1]; s++ {
			cu := coarseID[l.adjTo[s]]
			if cu == cv {
				continue
			}
			found := false
			for i := range adj[cv] {
				if adj[cv][i].to == cu {
					adj[cv][i].w += l.adjW[s]
					found = true
					break
				}
			}
			if !found {
				adj[cv] = append(adj[cv], cedge{cu, l.adjW[s]})
			}
		}
	}
	out := &level{n: int(nc), fine2coarse: coarseID}
	out.vertW = make([]int64, nc)
	for v := 0; v < l.n; v++ {
		out.vertW[coarseID[v]] += l.vertW[v]
	}
	out.adjOff = make([]int64, nc+1)
	for v := int32(0); v < nc; v++ {
		out.adjOff[v+1] = out.adjOff[v] + int64(len(adj[v]))
	}
	out.adjTo = make([]int32, out.adjOff[nc])
	out.adjW = make([]int64, out.adjOff[nc])
	for v := int32(0); v < nc; v++ {
		for i, ce := range adj[v] {
			out.adjTo[out.adjOff[v]+int64(i)] = ce.to
			out.adjW[out.adjOff[v]+int64(i)] = ce.w
		}
	}
	return out
}

// initialPartition grows numParts regions by BFS over the coarsest graph,
// balancing total vertex weight.
func initialPartition(l *level, numParts int, rng *rand.Rand) []int32 {
	labels := make([]int32, l.n)
	for v := range labels {
		labels[v] = -1
	}
	var totalW int64
	for _, w := range l.vertW {
		totalW += w
	}
	target := totalW/int64(numParts) + 1
	loads := make([]int64, numParts)
	queues := make([][]int32, numParts)
	for q := 0; q < numParts; q++ {
		for try := 0; try < 4*l.n && l.n > 0; try++ {
			v := int32(rng.Intn(l.n))
			if labels[v] == -1 {
				labels[v] = int32(q)
				loads[q] += l.vertW[v]
				queues[q] = append(queues[q], v)
				break
			}
		}
	}
	progress := true
	for progress {
		progress = false
		for q := 0; q < numParts; q++ {
			if loads[q] >= target || len(queues[q]) == 0 {
				continue
			}
			v := queues[q][0]
			queues[q] = queues[q][1:]
			for s := l.adjOff[v]; s < l.adjOff[v+1]; s++ {
				u := l.adjTo[s]
				if labels[u] == -1 {
					labels[u] = int32(q)
					loads[q] += l.vertW[u]
					queues[q] = append(queues[q], u)
				}
			}
			if len(queues[q]) > 0 {
				progress = true
			}
		}
	}
	// Any stragglers go to the lightest partition.
	for v := 0; v < l.n; v++ {
		if labels[v] == -1 {
			best := 0
			for q := 1; q < numParts; q++ {
				if loads[q] < loads[best] {
					best = q
				}
			}
			labels[v] = int32(best)
			loads[best] += l.vertW[v]
		}
	}
	return labels
}

// refine runs boundary FM-style passes: move a vertex to the neighboring
// partition with the largest edge-weight gain if balance permits.
func refine(l *level, labels []int32, numParts int, passes int) {
	loads := make([]int64, numParts)
	var totalW int64
	for v := 0; v < l.n; v++ {
		loads[labels[v]] += l.vertW[v]
		totalW += l.vertW[v]
	}
	capW := int64(1.1 * float64(totalW) / float64(numParts))
	gain := make([]int64, numParts)
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for v := 0; v < l.n; v++ {
			for q := range gain {
				gain[q] = 0
			}
			for s := l.adjOff[v]; s < l.adjOff[v+1]; s++ {
				gain[labels[l.adjTo[s]]] += l.adjW[s]
			}
			cur := labels[v]
			best := cur
			for q := int32(0); q < int32(numParts); q++ {
				if q == cur || gain[q] <= gain[best] {
					continue
				}
				if loads[q]+l.vertW[v] > capW {
					continue
				}
				best = q
			}
			if best != cur {
				loads[cur] -= l.vertW[v]
				loads[best] += l.vertW[v]
				labels[v] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}
