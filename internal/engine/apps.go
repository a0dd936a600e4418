package engine

import (
	"math"

	"github.com/distributedne/dne/internal/graph"
)

// PageRank runs the synchronous PageRank vertex program for the given number
// of iterations (the paper uses 100; Table-5 reproduction defaults to fewer,
// COM scales linearly) and returns the final ranks. Every vertex is active
// every superstep, so this is the heaviest communication workload (§7.6).
func (e *Engine) PageRank(iterations int, damping float64) []float64 {
	n := int(e.g.NumVertices())
	deg := e.g.Degrees()
	pr := make([]float64, n)
	for v := range pr {
		pr[v] = 1.0 / float64(n)
	}
	// Per-partition partial accumulators, merged at masters each superstep.
	partials := perPart[float64](e)
	contrib := make([]float64, n)
	next := make([]float64, n)
	base := (1 - damping) / float64(n)
	for it := 0; it < iterations; it++ {
		e.Supersteps++
		for v := range contrib {
			contrib[v] = pr[v] / float64(deg[v])
		}
		// Gather: each partition sums its local vertices' neighbour
		// contributions over their CSR rows in local scratch.
		e.runParallel(func(q int) {
			p := e.parts[q]
			acc := partials[q]
			for l := range acc {
				var sum float64
				for _, w := range p.row(l) {
					sum += contrib[w]
				}
				acc[l] = sum
			}
		})
		// Apply at masters (sequential merge) + sync accounting.
		for v := 0; v < n; v++ {
			next[v] = 0
		}
		for q, p := range e.parts {
			acc := partials[q]
			for i, gv := range p.verts {
				next[gv] += acc[i]
			}
		}
		for v := 0; v < n; v++ {
			if len(e.st.Replicas(graph.Vertex(v))) == 0 {
				continue
			}
			next[v] = base + damping*next[v]
			e.accountSync(graph.Vertex(v))
		}
		pr, next = next, pr
	}
	return pr
}

// SSSP computes unweighted single-source shortest paths (the paper's SSSP
// workload with Vertex 0 as source) and returns the distance array
// (math.MaxInt64 = unreachable). Only frontier activity generates compute
// and communication, making it the lightest workload.
func (e *Engine) SSSP(source graph.Vertex) []int64 {
	n := int(e.g.NumVertices())
	const inf = math.MaxInt64
	dist := make([]int64, n)
	for v := range dist {
		dist[v] = inf
	}
	dist[source] = 0
	active := make([]bool, n)
	active[source] = true
	e.accountScatterOnly(source)

	partials := perPart[int64](e)
	for {
		e.Supersteps++
		anyActive := false
		e.runParallel(func(q int) {
			p := e.parts[q]
			prop := partials[q]
			for l := range prop {
				best := int64(inf)
				for _, w := range p.row(l) {
					if active[w] && dist[w]+1 < best {
						best = dist[w] + 1
					}
				}
				prop[l] = best
			}
		})
		// Apply at masters; vertices whose distance improves become the next
		// frontier and are synced to mirrors.
		nextActive := make([]bool, n)
		for q, p := range e.parts {
			prop := partials[q]
			for i, gv := range p.verts {
				if prop[i] < dist[gv] {
					dist[gv] = prop[i]
					nextActive[gv] = true
				}
			}
		}
		for v := 0; v < n; v++ {
			if nextActive[v] {
				anyActive = true
				e.accountSync(graph.Vertex(v))
			}
		}
		active = nextActive
		if !anyActive {
			break
		}
	}
	return dist
}

// WCC computes weakly connected components by min-label propagation and
// returns the component label of every vertex (its smallest-id member).
// Each superstep pulls every neighbour's label: a neighbour whose label did
// not change last superstep already passed it on when it last changed, so
// pulling it too never lowers a label a frontier-only pull would not.
func (e *Engine) WCC() []graph.Vertex {
	n := int(e.g.NumVertices())
	label := make([]graph.Vertex, n)
	for v := range label {
		label[v] = graph.Vertex(v)
	}
	partials := perPart[graph.Vertex](e)
	moved := make([]bool, n)
	for {
		e.Supersteps++
		e.runParallel(func(q int) {
			p := e.parts[q]
			prop := partials[q]
			for l, v := range p.verts {
				best := label[v]
				for _, w := range p.row(l) {
					best = min(best, label[w])
				}
				prop[l] = best
			}
		})
		clear(moved)
		for q, p := range e.parts {
			prop := partials[q]
			for i, gv := range p.verts {
				if prop[i] < label[gv] {
					label[gv] = prop[i]
					moved[gv] = true
				}
			}
		}
		changed := false
		for v, m := range moved {
			if m {
				changed = true
				e.accountSync(graph.Vertex(v))
			}
		}
		if !changed {
			break
		}
	}
	return label
}
