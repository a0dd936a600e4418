// Package graph provides the in-memory graph representation shared by every
// partitioner in this repository: an undirected, deduplicated edge list with
// an optional CSR (compressed sparse row) adjacency index.
//
// Vertices are dense uint32 identifiers in [0, NumVertices). Edges are
// unordered pairs; the canonical form stores U <= V. Self loops are dropped
// and duplicate edges are compacted at build time, matching the paper's
// preprocessing ("it compacts the duplicated edges", §7.3).
package graph

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/distributedne/dne/internal/dsa"
)

// Vertex is a dense vertex identifier.
type Vertex = uint32

// Edge is an undirected edge in canonical form (U <= V after Build).
type Edge struct {
	U, V Vertex
}

// Canon returns e with endpoints ordered so that U <= V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Graph is an undirected graph with dense vertex ids and canonical,
// deduplicated edges. The zero value is an empty graph; use Build or
// FromEdges to construct a usable one.
type Graph struct {
	n     uint32 // number of vertices
	edges []Edge // canonical, sorted, deduplicated

	// CSR adjacency: for vertex v, neighbors are adjTarget[adjOff[v]:adjOff[v+1]]
	// and adjEdge holds the index into edges for each adjacency slot.
	// Each undirected edge appears twice (once per endpoint), except that a
	// canonical edge {v,v} cannot exist (self loops are removed).
	adjOff    []int64
	adjTarget []Vertex
	adjEdge   []int32
}

// FromEdges builds a graph from raw (possibly duplicated, possibly
// non-canonical) edges. numVertices may be 0, in which case it is inferred as
// max endpoint + 1. Self loops are dropped and duplicates compacted.
//
// Construction is parallel end to end on multi-core machines: canonical
// edges are packed into uint64 keys and sorted with a parallel radix sort
// (replacing the comparator-based sort.Slice), and the CSR adjacency is
// filled by concurrent chunk workers. The result is bit-identical to the
// sequential build: the same sorted, deduplicated edge list and the same
// adjacency layout (each vertex's slots ascending by canonical edge index).
func FromEdges(numVertices uint32, raw []Edge) *Graph {
	keys := make([]uint64, 0, len(raw))
	maxV := uint32(0)
	for _, e := range raw {
		if e.U == e.V {
			continue // self loop
		}
		c := e.Canon()
		if c.V >= maxV {
			maxV = c.V + 1
		}
		keys = append(keys, uint64(c.U)<<32|uint64(c.V))
	}
	return fromKeys(numVertices, maxV, keys)
}

// FromPacked builds a graph from packed edge keys (PackEdge format). Keys
// may be non-canonical, duplicated or self loops; the slice is canonicalized
// and sorted in place. numVertices may be 0, in which case it is inferred.
// The result is identical to FromEdges over the unpacked edges.
func FromPacked(numVertices uint32, keys []uint64) *Graph {
	kept := keys[:0]
	maxV := uint32(0)
	for _, k := range keys {
		u, v := Vertex(k>>32), Vertex(k)
		if u == v {
			continue // self loop
		}
		if u > v {
			u, v = v, u
			k = uint64(u)<<32 | uint64(v)
		}
		if v >= maxV {
			maxV = v + 1
		}
		kept = append(kept, k)
	}
	return fromKeys(numVertices, maxV, kept)
}

// fromKeys finishes construction from canonical packed keys: sorting the
// keys ascending is exactly the (U, V) lexicographic order of the canonical
// edges.
func fromKeys(numVertices, maxV uint32, keys []uint64) *Graph {
	if numVertices == 0 {
		numVertices = maxV
	} else if maxV > numVertices {
		panic(fmt.Sprintf("graph: edge endpoint %d exceeds numVertices %d", maxV-1, numVertices))
	}
	dsa.SortU64(keys)
	edges := make([]Edge, 0, len(keys))
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			continue // duplicate edge
		}
		edges = append(edges, Edge{U: Vertex(k >> 32), V: Vertex(k)})
	}
	g := &Graph{n: numVertices, edges: edges}
	g.buildCSR()
	return g
}

// csrMinChunk is the smallest per-worker edge chunk worth a goroutine in the
// CSR fill.
const csrMinChunk = 1 << 16

func (g *Graph) buildCSR() {
	w := runtime.GOMAXPROCS(0)
	if maxW := len(g.edges) / csrMinChunk; w > maxW {
		w = maxW
	}
	// The parallel fill needs a w·|V| cursor slab; keep it a small fraction
	// of the CSR being built (4·|E|/|V| workers bounds the slab by the
	// adjacency array size) so sparse wide-id graphs fall back to the
	// sequential path instead of allocating more scratch than output.
	if g.n > 0 {
		if maxW := 4 * len(g.edges) / int(g.n); w > maxW {
			w = maxW
		}
	}
	if w < 1 {
		w = 1
	}
	g.buildCSRWorkers(w)
}

// buildCSRWorkers builds the CSR index with w parallel chunk workers. The
// layout is identical for every w: per-worker incidence counts are converted
// into per-(vertex, chunk) starting cursors, so each worker fills its
// chunk's slots in place and every vertex's adjacency stays ordered by
// ascending edge index, exactly as a single sequential pass would leave it.
func (g *Graph) buildCSRWorkers(w int) {
	n := int(g.n)
	m := len(g.edges)
	if w < 1 {
		w = 1
	}
	if w == 1 {
		g.buildCSRSequential()
		return
	}
	chunk := (m + w - 1) / w
	// cnt[wi*n+v] = number of adjacency slots vertex v receives from chunk
	// wi; converted below into the chunk's starting cursor within v's range.
	cnt := make([]int32, w*n)
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		lo, hi := wi*chunk, min((wi+1)*chunk, m)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(wi, lo, hi int) {
			defer wg.Done()
			c := cnt[wi*n : (wi+1)*n]
			for _, e := range g.edges[lo:hi] {
				c[e.U]++
				c[e.V]++
			}
		}(wi, lo, hi)
	}
	wg.Wait()

	off := make([]int64, n+1)
	for v := 0; v < n; v++ {
		var run int32
		for wi := 0; wi < w; wi++ {
			c := cnt[wi*n+v]
			cnt[wi*n+v] = run
			run += c
		}
		off[v+1] = off[v] + int64(run)
	}
	g.adjOff = off
	total := off[n]
	g.adjTarget = make([]Vertex, total)
	g.adjEdge = make([]int32, total)
	for wi := 0; wi < w; wi++ {
		lo, hi := wi*chunk, min((wi+1)*chunk, m)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(wi, lo, hi int) {
			defer wg.Done()
			cur := cnt[wi*n : (wi+1)*n]
			for i := lo; i < hi; i++ {
				e := g.edges[i]
				pu := off[e.U] + int64(cur[e.U])
				g.adjTarget[pu] = e.V
				g.adjEdge[pu] = int32(i)
				cur[e.U]++
				pv := off[e.V] + int64(cur[e.V])
				g.adjTarget[pv] = e.U
				g.adjEdge[pv] = int32(i)
				cur[e.V]++
			}
		}(wi, lo, hi)
	}
	wg.Wait()
}

func (g *Graph) buildCSRSequential() {
	deg := make([]int64, g.n+1)
	for _, e := range g.edges {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	for v := uint32(0); v < g.n; v++ {
		deg[v+1] += deg[v]
	}
	g.adjOff = deg
	total := deg[g.n]
	g.adjTarget = make([]Vertex, total)
	g.adjEdge = make([]int32, total)
	cursor := make([]int64, g.n)
	for i, e := range g.edges {
		pu := g.adjOff[e.U] + cursor[e.U]
		g.adjTarget[pu] = e.V
		g.adjEdge[pu] = int32(i)
		cursor[e.U]++
		pv := g.adjOff[e.V] + cursor[e.V]
		g.adjTarget[pv] = e.U
		g.adjEdge[pv] = int32(i)
		cursor[e.V]++
	}
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() uint32 { return g.n }

// NumEdges returns |E| (each undirected edge counted once).
func (g *Graph) NumEdges() int64 { return int64(len(g.edges)) }

// Edges returns the canonical edge slice. Callers must not mutate it.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the i-th canonical edge.
func (g *Graph) Edge(i int64) Edge { return g.edges[i] }

// Degree returns the degree of v.
func (g *Graph) Degree(v Vertex) int64 { return g.adjOff[v+1] - g.adjOff[v] }

// Neighbors returns the neighbor vertices of v. Callers must not mutate it.
func (g *Graph) Neighbors(v Vertex) []Vertex {
	return g.adjTarget[g.adjOff[v]:g.adjOff[v+1]]
}

// IncidentEdges returns, for each adjacency slot of v, the index of the
// canonical edge. Callers must not mutate it.
func (g *Graph) IncidentEdges(v Vertex) []int32 {
	return g.adjEdge[g.adjOff[v]:g.adjOff[v+1]]
}

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int64 {
	var max int64
	for v := uint32(0); v < g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// Degrees returns a fresh slice of all vertex degrees.
func (g *Graph) Degrees() []int64 {
	d := make([]int64, g.n)
	for v := uint32(0); v < g.n; v++ {
		d[v] = g.Degree(v)
	}
	return d
}

// AvgDegree returns 2|E|/|V| (0 for an empty graph).
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(len(g.edges)) / float64(g.n)
}

// MemoryFootprint returns an analytic estimate of the bytes held by the
// graph's core arrays (edge list + CSR). It is used by the Fig-9 memory
// scoring so that all partitioners are accounted identically.
func (g *Graph) MemoryFootprint() int64 {
	return int64(len(g.edges))*8 + // edges: two uint32
		int64(len(g.adjOff))*8 +
		int64(len(g.adjTarget))*4 +
		int64(len(g.adjEdge))*4
}

func (g *Graph) String() string {
	return fmt.Sprintf("graph{|V|=%d |E|=%d}", g.n, len(g.edges))
}
