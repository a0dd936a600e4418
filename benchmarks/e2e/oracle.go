package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"slices"

	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/store"
)

// The oracle checks outputs with code of its own. It imports no checker,
// metric or benchmark helper from the repository, which performance changes
// may edit; it reads only the outputs and, for query answers, the plain
// adjacency of graph.Graph.

// quality is what a partitioning delivers, recomputed from (edge, owner).
type quality struct {
	rf          float64 // sum over vertices of parts holding it / vertices with an edge
	edgeBalance float64 // largest part / mean part, in edges
}

// maxOracleParts bounds the part count: a vertex's parts are a 64-bit mask.
const maxOracleParts = 64

// checkPartition verifies that keys, the packed canonical edges of a result
// in ascending order, are exactly want (every edge owned once, none missing,
// none invented), that every owner is in [0, parts), and recomputes the
// quality from scratch.
func checkPartition(numVertices uint32, want, keys []uint64, owner []int32, parts int) (quality, error) {
	if parts <= 0 || parts > maxOracleParts {
		return quality{}, fmt.Errorf("oracle: %d parts unsupported", parts)
	}
	if len(keys) != len(want) || len(owner) != len(want) {
		return quality{}, fmt.Errorf("oracle: %d edges and %d owners for %d input edges", len(keys), len(owner), len(want))
	}
	if len(want) == 0 {
		return quality{}, fmt.Errorf("oracle: empty input")
	}
	masks := make([]uint64, numVertices)
	sizes := make([]int64, parts)
	for i, k := range keys {
		if k != want[i] {
			return quality{}, fmt.Errorf("oracle: edge %d is %#x, input edge is %#x", i, k, want[i])
		}
		o := owner[i]
		if o < 0 || int(o) >= parts {
			return quality{}, fmt.Errorf("oracle: edge %d has owner %d outside [0,%d)", i, o, parts)
		}
		u, v := uint32(k>>32), uint32(k)
		if u >= numVertices || v >= numVertices {
			return quality{}, fmt.Errorf("oracle: edge %d endpoint outside [0,%d)", i, numVertices)
		}
		masks[u] |= 1 << o
		masks[v] |= 1 << o
		sizes[o]++
	}
	var replicas, covered int64
	for _, m := range masks {
		if m != 0 {
			covered++
			replicas += int64(bits.OnesCount64(m))
		}
	}
	return quality{
		rf:          float64(replicas) / float64(covered),
		edgeBalance: float64(slices.Max(sizes)) * float64(parts) / float64(len(want)),
	}, nil
}

// ownerChecksum digests an owner sequence; equal sequences are what "the
// same partitioning on every rep" means.
func ownerChecksum(owner []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, o := range owner {
		b[0], b[1], b[2], b[3] = byte(o), byte(o>>8), byte(o>>16), byte(o>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// checkRepeats fails r unless sum, the checksum of this rep's output, equals
// *first, the checksum of the first rep on the same input (0: this is it).
func checkRepeats(r *repResult, first *uint64, sum uint64) {
	if *first == 0 {
		*first = sum
	} else if sum != *first {
		r.fail(fmt.Errorf("oracle: output checksum %#x differs from %#x, the first rep's on this input", sum, *first))
	}
}

// packedEdges returns g's canonical edges as ascending packed keys.
func packedEdges(g *graph.Graph) []uint64 {
	keys := make([]uint64, 0, g.NumEdges())
	for _, e := range g.Edges() {
		keys = append(keys, graph.PackEdge(e.U, e.V))
	}
	if !slices.IsSorted(keys) {
		slices.Sort(keys)
	}
	return keys
}

// adjacent returns v's neighbours in g; a live epoch's vertex range may run
// past the last vertex that has an edge.
func adjacent(g *graph.Graph, v graph.Vertex) []graph.Vertex {
	if v >= g.NumVertices() {
		return nil
	}
	return g.Neighbors(v)
}

// checkNeighbors compares a Neighbors answer with the adjacency of g.
func checkNeighbors(g *graph.Graph, v graph.Vertex, got []graph.Vertex) error {
	want := slices.Clone(adjacent(g, v))
	slices.Sort(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("oracle: Neighbors(%d) has %d vertices, adjacency has %d", v, len(got), len(want))
	}
	return nil
}

// checkKHop compares a KHop answer with a plain breadth-first search on g:
// the vertices within k hops in (depth, id) order, and their depths.
func checkKHop(g *graph.Graph, v graph.Vertex, k int, got *store.KHopResult) error {
	seen := map[graph.Vertex]bool{v: true}
	verts, depths := []graph.Vertex{v}, []int32{0}
	frontier := []graph.Vertex{v}
	for d := int32(1); int(d) <= k && len(frontier) > 0; d++ {
		var next []graph.Vertex
		for _, u := range frontier {
			for _, w := range adjacent(g, u) {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
				}
			}
		}
		slices.Sort(next)
		for _, w := range next {
			verts, depths = append(verts, w), append(depths, d)
		}
		frontier = next
	}
	if got == nil || !slices.Equal(got.Vertices, verts) || !slices.Equal(got.Depths, depths) {
		return fmt.Errorf("oracle: KHop(%d,%d) differs from breadth-first search (%d vertices)", v, k, len(verts))
	}
	return nil
}

// A querier answers the two query kinds: a store.Store or a store.Epoch.
type querier interface {
	Neighbors(v graph.Vertex) ([]graph.Vertex, error)
	KHop(ctx context.Context, v graph.Vertex, k int) (*store.KHopResult, error)
}

// refPageRank is PageRank as engine.PageRank defines it (uniform start, no
// redistribution of dangling rank, a vertex without edges drops to 0),
// computed edge by edge on the whole graph.
func refPageRank(g *graph.Graph, iterations int, damping float64) []float64 {
	n := int(g.NumVertices())
	pr, next := make([]float64, n), make([]float64, n)
	for v := range pr {
		pr[v] = 1 / float64(n)
	}
	base := (1 - damping) / float64(n)
	for it := 0; it < iterations; it++ {
		clear(next)
		for _, e := range g.Edges() {
			next[e.V] += pr[e.U] / float64(g.Degree(e.U))
			next[e.U] += pr[e.V] / float64(g.Degree(e.V))
		}
		for v := range next {
			if g.Degree(graph.Vertex(v)) > 0 {
				next[v] = base + damping*next[v]
			}
		}
		pr, next = next, pr
	}
	return pr
}

// checkPageRank allows for the different order in which the engine sums.
func checkPageRank(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("oracle: PageRank has %d ranks for %d vertices", len(got), len(want))
	}
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9*math.Max(want[v], 1e-12)+1e-15 {
			return fmt.Errorf("oracle: PageRank of vertex %d is %g, reference %g", v, got[v], want[v])
		}
	}
	return nil
}

// refWCC labels every vertex with the smallest id in its component, by
// union-find over the edges.
func refWCC(g *graph.Graph) []graph.Vertex {
	parent := make([]graph.Vertex, g.NumVertices())
	for v := range parent {
		parent[v] = graph.Vertex(v)
	}
	var find func(v graph.Vertex) graph.Vertex
	find = func(v graph.Vertex) graph.Vertex {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for _, e := range g.Edges() {
		a, b := find(e.U), find(e.V)
		if a < b {
			parent[b] = a
		} else {
			parent[a] = b
		}
	}
	for v := range parent {
		parent[v] = find(graph.Vertex(v))
	}
	return parent
}
