package engine

import (
	"cmp"
	"slices"

	"github.com/distributedne/dne/internal/graph"
)

// Coreness computes the k-core number of every vertex by the distributed
// h-index iteration (Lü et al., "The H-index of a network node"): start from
// c(v) = deg(v) and repeatedly set c(v) to the h-index of its neighbors'
// current values. The fixpoint is exactly the coreness, and each round is a
// gather over the vertex's neighborhood — a natural GAS program.
func (e *Engine) Coreness() []int32 {
	n := int(e.g.NumVertices())
	core := make([]int32, n)
	for v := 0; v < n; v++ {
		core[v] = int32(e.g.Degree(graph.Vertex(v)))
	}
	// neighborVals[q] collects, for each local vertex, its neighbors' current
	// core estimates over the partition's local edges; estimates for
	// neighbors reached through other partitions arrive via the master merge,
	// which concatenates per-partition lists before computing the h-index.
	type bucket struct{ vals [][]int32 }
	buckets := make([]bucket, len(e.parts))
	for q, p := range e.parts {
		buckets[q].vals = make([][]int32, len(p.verts))
	}
	for {
		e.Supersteps++
		e.runParallel(func(q int) {
			p := e.parts[q]
			b := &buckets[q]
			for i := range b.vals {
				b.vals[i] = b.vals[i][:0]
			}
			for _, le := range p.edges {
				gu, gv := p.verts[le.u], p.verts[le.v]
				b.vals[le.v] = append(b.vals[le.v], core[gu])
				b.vals[le.u] = append(b.vals[le.u], core[gv])
			}
		})
		// Master merge: gather all partial neighbor lists per vertex, compute
		// the h-index, detect change.
		changed := false
		merged := make([][]int32, n)
		for q, p := range e.parts {
			for i, gv := range p.verts {
				if len(buckets[q].vals[i]) > 0 {
					merged[gv] = append(merged[gv], buckets[q].vals[i]...)
				}
			}
		}
		for v := 0; v < n; v++ {
			if len(merged[v]) == 0 {
				continue
			}
			h := hIndex(merged[v])
			if h < core[v] {
				core[v] = h
				changed = true
				e.accountSync(graph.Vertex(v))
			}
		}
		if !changed {
			break
		}
	}
	return core
}

// hIndex returns the largest h such that at least h values are >= h.
// It mutates vals (sorts descending).
func hIndex(vals []int32) int32 {
	slices.SortFunc(vals, func(a, b int32) int { return cmp.Compare(b, a) })
	var h int32
	for i, v := range vals {
		if v >= int32(i+1) {
			h = int32(i + 1)
		} else {
			break
		}
	}
	return h
}

// Triangles returns the global triangle count. Each partition intersects the
// (globally known, mirror-replicated) sorted adjacency lists of its own
// edges' endpoints; since every edge is owned by exactly one partition and
// each triangle has three edges, the owned-edge intersection total is 3×the
// triangle count. Compute is charged to the owning partition, making this
// the canonical "edge balance drives workload balance" app.
func (e *Engine) Triangles() int64 {
	e.Supersteps++
	counts := make([]int64, len(e.parts))
	e.runParallel(func(q int) {
		p := e.parts[q]
		var c int64
		for _, le := range p.edges {
			gu, gv := p.verts[le.u], p.verts[le.v]
			c += intersectCount(e.g.Neighbors(gu), e.g.Neighbors(gv))
		}
		counts[q] = c
	})
	var total int64
	for _, c := range counts {
		total += c
	}
	// Mirror adjacency is shipped once per edge endpoint at load time in a
	// real deployment; charge one sync per covered vertex as a conservative
	// stand-in.
	for v := 0; v < int(e.g.NumVertices()); v++ {
		e.accountScatterOnly(graph.Vertex(v))
	}
	return total / 3
}

// intersectCount returns |a ∩ b| for ascending-sorted neighbor slices.
func intersectCount(a, b []graph.Vertex) int64 {
	var c int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// LabelPropagation runs synchronous community detection for at most maxIters
// supersteps: every vertex adopts the most frequent label among its
// neighbors, breaking ties toward the smaller label (deterministic). Returns
// the final labels. Communities in disjoint components never mix.
func (e *Engine) LabelPropagation(maxIters int) []graph.Vertex {
	n := int(e.g.NumVertices())
	label := make([]graph.Vertex, n)
	for v := range label {
		label[v] = graph.Vertex(v)
	}
	type pair struct {
		l graph.Vertex
		c int32
	}
	// Per-partition label-count maps for local vertices.
	partial := make([][]map[graph.Vertex]int32, len(e.parts))
	for q, p := range e.parts {
		partial[q] = make([]map[graph.Vertex]int32, len(p.verts))
	}
	for it := 0; it < maxIters; it++ {
		e.Supersteps++
		e.runParallel(func(q int) {
			p := e.parts[q]
			for i := range partial[q] {
				partial[q][i] = nil
			}
			for _, le := range p.edges {
				gu, gv := p.verts[le.u], p.verts[le.v]
				if partial[q][le.v] == nil {
					partial[q][le.v] = make(map[graph.Vertex]int32)
				}
				partial[q][le.v][label[gu]]++
				if partial[q][le.u] == nil {
					partial[q][le.u] = make(map[graph.Vertex]int32)
				}
				partial[q][le.u][label[gv]]++
			}
		})
		// Master merge.
		counts := make([]map[graph.Vertex]int32, n)
		for q, p := range e.parts {
			for i, gv := range p.verts {
				if partial[q][i] == nil {
					continue
				}
				if counts[gv] == nil {
					counts[gv] = make(map[graph.Vertex]int32)
				}
				//lint:ordered commutative count merge; += is order-insensitive
				for l, c := range partial[q][i] {
					counts[gv][l] += c
				}
			}
		}
		changed := false
		for v := 0; v < n; v++ {
			if counts[v] == nil {
				continue
			}
			best := pair{l: label[v], c: 0}
			if c, ok := counts[v][label[v]]; ok {
				best.c = c
			}
			//lint:ordered argmax with a total-order tie-break is iteration-order-insensitive
			for l, c := range counts[v] {
				if c > best.c || (c == best.c && l < best.l) {
					best = pair{l: l, c: c}
				}
			}
			if best.l != label[v] {
				label[v] = best.l
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
