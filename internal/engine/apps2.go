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
	// buckets[q] collects, for each local vertex, its neighbors' current
	// core estimates over the partition's local edges; estimates for
	// neighbors reached through other partitions arrive via the master merge,
	// which concatenates per-partition lists before computing the h-index.
	buckets := perPart[[]int32](e)
	for {
		e.Supersteps++
		e.runParallel(func(q int) {
			p := e.parts[q]
			b := buckets[q]
			for l := range b {
				b[l] = b[l][:0]
				for _, w := range p.row(l) {
					b[l] = append(b[l], core[w])
				}
			}
		})
		// Master merge: gather all partial neighbor lists per vertex, compute
		// the h-index, detect change.
		changed := false
		merged := make([][]int32, n)
		for q, p := range e.parts {
			for i, gv := range p.verts {
				if len(buckets[q][i]) > 0 {
					merged[gv] = append(merged[gv], buckets[q][i]...)
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
// edges' endpoints, visiting each edge at its lower endpoint's CSR row;
// since every edge is owned by exactly one partition and each triangle has
// three edges, the owned-edge intersection total is 3×the triangle count.
// Compute is charged to the owning partition, making this the canonical
// "edge balance drives workload balance" app.
func (e *Engine) Triangles() int64 {
	e.Supersteps++
	counts := make([]int64, len(e.parts))
	e.runParallel(func(q int) {
		p := e.parts[q]
		var c int64
		for l, u := range p.verts {
			for _, w := range p.row(l) {
				if u < w {
					c += intersectCount(e.g.Neighbors(u), e.g.Neighbors(w))
				}
			}
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
	partial := perPart[map[graph.Vertex]int32](e)
	for it := 0; it < maxIters; it++ {
		e.Supersteps++
		e.runParallel(func(q int) {
			p := e.parts[q]
			for l := range partial[q] {
				m := make(map[graph.Vertex]int32)
				for _, w := range p.row(l) {
					m[label[w]]++
				}
				partial[q][l] = m
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
