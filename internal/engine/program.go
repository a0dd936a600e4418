package engine

import "github.com/distributedne/dne/internal/graph"

// Program is a user-defined synchronous gather-apply vertex program over
// float64 state — the same model the built-in apps use, exposed so
// downstream code can run custom analytics over any edge partitioning
// without touching engine internals.
//
// Each superstep: for every vertex v of every partition, the engine calls
// Gather once for each neighbour u that the partition's edges give v, and
// sums the contributions per vertex (partition-locally first, then across
// partitions at the master); Apply then produces each vertex's next value
// and reports whether it changed. Only changed vertices are sync-accounted,
// and the run stops when no vertex changes or MaxSupersteps elapse.
//
// The summation order is fixed, so results are bit-reproducible: within a
// partition, v's neighbours are summed in ascending id order, starting
// from 0; the partitions' partial sums are then added, starting from 0, in
// partition id order.
type Program interface {
	// Init returns vertex v's initial value.
	Init(v graph.Vertex) float64
	// Gather returns the contribution of neighbor u (with value uVal) to v.
	Gather(u graph.Vertex, uVal float64, v graph.Vertex) float64
	// Apply combines v's current value with the gathered sum, returning the
	// next value and whether it should count as changed (activating sync).
	Apply(v graph.Vertex, cur, sum float64) (next float64, changed bool)
}

// Run executes p until quiescence or maxSupersteps (0 = unlimited) and
// returns the final vertex values.
func (e *Engine) Run(p Program, maxSupersteps int) []float64 {
	n := int(e.g.NumVertices())
	val := make([]float64, n)
	for v := 0; v < n; v++ {
		val[v] = p.Init(graph.Vertex(v))
	}
	partials := perPart[float64](e)
	sum := make([]float64, n)
	for step := 0; maxSupersteps == 0 || step < maxSupersteps; step++ {
		e.Supersteps++
		e.runParallel(func(q int) {
			pt := e.parts[q]
			acc := partials[q]
			for l, v := range pt.verts {
				var sum float64
				for _, w := range pt.row(l) {
					sum += p.Gather(w, val[w], v)
				}
				acc[l] = sum
			}
		})
		for v := 0; v < n; v++ {
			sum[v] = 0
		}
		for q, pt := range e.parts {
			acc := partials[q]
			for i, gv := range pt.verts {
				sum[gv] += acc[i]
			}
		}
		anyChanged := false
		for v := 0; v < n; v++ {
			if len(e.st.Replicas(graph.Vertex(v))) == 0 {
				continue
			}
			next, changed := p.Apply(graph.Vertex(v), val[v], sum[v])
			val[v] = next
			if changed {
				anyChanged = true
				e.accountSync(graph.Vertex(v))
			}
		}
		if !anyChanged {
			break
		}
	}
	return val
}
