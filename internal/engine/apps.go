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
	partials := make([][]float64, len(e.parts))
	for q, p := range e.parts {
		partials[q] = make([]float64, len(p.verts))
	}
	next := make([]float64, n)
	base := (1 - damping) / float64(n)
	for it := 0; it < iterations; it++ {
		e.Supersteps++
		// Gather: each partition scans its local edges and accumulates
		// pr[u]/deg[u] contributions in local scratch.
		e.runParallel(func(q int) {
			p := e.parts[q]
			acc := partials[q]
			for i := range acc {
				acc[i] = 0
			}
			for _, le := range p.edges {
				gu, gv := p.verts[le.u], p.verts[le.v]
				acc[le.v] += pr[gu] / float64(deg[gu])
				acc[le.u] += pr[gv] / float64(deg[gv])
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
			if e.replicas.Count(graph.Vertex(v)) == 0 {
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

	partials := make([][]int64, len(e.parts))
	for q, p := range e.parts {
		partials[q] = make([]int64, len(p.verts))
	}
	for {
		e.Supersteps++
		anyActive := false
		e.runParallel(func(q int) {
			p := e.parts[q]
			prop := partials[q]
			for i := range prop {
				prop[i] = inf
			}
			for _, le := range p.edges {
				gu, gv := p.verts[le.u], p.verts[le.v]
				if active[gu] && dist[gu]+1 < prop[le.v] {
					prop[le.v] = dist[gu] + 1
				}
				if active[gv] && dist[gv]+1 < prop[le.u] {
					prop[le.u] = dist[gv] + 1
				}
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
func (e *Engine) WCC() []graph.Vertex {
	n := int(e.g.NumVertices())
	label := make([]graph.Vertex, n)
	active := make([]bool, n)
	for v := range label {
		label[v] = graph.Vertex(v)
		active[v] = true
	}
	partials := make([][]graph.Vertex, len(e.parts))
	for q, p := range e.parts {
		partials[q] = make([]graph.Vertex, len(p.verts))
	}
	for {
		e.Supersteps++
		e.runParallel(func(q int) {
			p := e.parts[q]
			prop := partials[q]
			for i, gv := range p.verts {
				prop[i] = label[gv]
			}
			for _, le := range p.edges {
				gu, gv := p.verts[le.u], p.verts[le.v]
				if active[gu] && label[gu] < prop[le.v] {
					prop[le.v] = label[gu]
				}
				if active[gv] && label[gv] < prop[le.u] {
					prop[le.u] = label[gv]
				}
			}
		})
		nextActive := make([]bool, n)
		changed := false
		for q, p := range e.parts {
			prop := partials[q]
			for i, gv := range p.verts {
				if prop[i] < label[gv] {
					label[gv] = prop[i]
					nextActive[gv] = true
				}
			}
		}
		for v := 0; v < n; v++ {
			if nextActive[v] {
				changed = true
				e.accountSync(graph.Vertex(v))
			}
		}
		active = nextActive
		if !changed {
			break
		}
	}
	return label
}
