package engine

import (
	"math"
	"testing"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

// buildEngineR builds an engine over a Random partitioning (helper shared by
// the apps2 tests; engine_test.go's buildEngine takes an explicit
// partitioner).
func buildEngineR(t *testing.T, g *graph.Graph, parts int) *Engine {
	t.Helper()
	return buildEngine(t, g, "random", 5, parts)
}

// corenessRef is the classic sequential peeling algorithm.
func corenessRef(g *graph.Graph) []int32 {
	n := int(g.NumVertices())
	deg := make([]int32, n)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(graph.Vertex(v)))
	}
	core := make([]int32, n)
	removed := make([]bool, n)
	// Peel minimum-degree vertices; a vertex's core number is the maximum
	// degree threshold seen up to its removal.
	var runMax int32
	for {
		min := int32(math.MaxInt32)
		minV := -1
		for v := 0; v < n; v++ {
			if !removed[v] && deg[v] < min {
				min = deg[v]
				minV = v
			}
		}
		if minV < 0 {
			break
		}
		if min > runMax {
			runMax = min
		}
		removed[minV] = true
		core[minV] = runMax
		for _, u := range g.Neighbors(graph.Vertex(minV)) {
			if !removed[u] {
				deg[u]--
			}
		}
	}
	return core
}

func TestCorenessMatchesPeeling(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.RMAT(8, 8, 3),
		gen.Road(12, 12, 1),
		gen.RingPlusComplete(6),
	} {
		e := buildEngineR(t, g, 4)
		got := e.Coreness()
		want := corenessRef(g)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%v vertex %d: coreness %d, want %d", g, v, got[v], want[v])
			}
		}
	}
}

func TestCorenessCompleteGraph(t *testing.T) {
	// K_n: every vertex has coreness n−1.
	var edges []graph.Edge
	const n = 9
	for u := uint32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	g := graph.FromEdges(n, edges)
	e := buildEngineR(t, g, 3)
	for v, c := range e.Coreness() {
		if c != n-1 {
			t.Errorf("vertex %d: coreness %d, want %d", v, c, n-1)
		}
	}
}

// trianglesRef counts triangles by brute force.
func trianglesRef(g *graph.Graph) int64 {
	n := g.NumVertices()
	adj := make(map[[2]graph.Vertex]bool)
	for _, e := range g.Edges() {
		adj[[2]graph.Vertex{e.U, e.V}] = true
	}
	has := func(a, b graph.Vertex) bool {
		if a > b {
			a, b = b, a
		}
		return adj[[2]graph.Vertex{a, b}]
	}
	var c int64
	for u := graph.Vertex(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			for w := v + 1; w < n; w++ {
				if has(u, v) && has(v, w) && has(u, w) {
					c++
				}
			}
		}
	}
	return c
}

func TestTrianglesMatchesBruteForce(t *testing.T) {
	g := gen.RMAT(7, 6, 5)
	e := buildEngineR(t, g, 4)
	got := e.Triangles()
	want := trianglesRef(g)
	if got != want {
		t.Fatalf("triangles %d, want %d", got, want)
	}
}

func TestTrianglesCompleteGraph(t *testing.T) {
	// K_n has C(n,3) triangles.
	var edges []graph.Edge
	const n = 10
	for u := uint32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	g := graph.FromEdges(n, edges)
	e := buildEngineR(t, g, 5)
	want := int64(n * (n - 1) * (n - 2) / 6)
	if got := e.Triangles(); got != want {
		t.Fatalf("K%d triangles %d, want %d", n, got, want)
	}
}

func TestTrianglesPureLattice(t *testing.T) {
	// A pure 4-neighbor grid (no diagonals — gen.Road adds ~5% shortcuts)
	// has no triangles.
	const rows, cols = 10, 10
	id := func(r, c int) uint32 { return uint32(r*cols + c) }
	var edges []graph.Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c)})
			}
		}
	}
	g := graph.FromEdges(rows*cols, edges)
	e := buildEngineR(t, g, 4)
	if got := e.Triangles(); got != 0 {
		t.Fatalf("lattice triangles %d, want 0", got)
	}
}

func TestLabelPropagationDisjointCliques(t *testing.T) {
	// Two disjoint cliques must end with two distinct labels, and labels must
	// be uniform within each clique.
	var edges []graph.Edge
	const k = 6
	for u := uint32(0); u < k; u++ {
		for v := u + 1; v < k; v++ {
			edges = append(edges, graph.Edge{U: u, V: v})
			edges = append(edges, graph.Edge{U: u + k, V: v + k})
		}
	}
	g := graph.FromEdges(2*k, edges)
	e := buildEngineR(t, g, 3)
	labels := e.LabelPropagation(50)
	for v := uint32(1); v < k; v++ {
		if labels[v] != labels[0] {
			t.Errorf("clique A vertex %d: label %d != %d", v, labels[v], labels[0])
		}
		if labels[v+k] != labels[k] {
			t.Errorf("clique B vertex %d: label %d != %d", v+k, labels[v+k], labels[k])
		}
	}
	if labels[0] == labels[k] {
		t.Error("disjoint cliques share a label")
	}
}

func TestLabelPropagationTerminates(t *testing.T) {
	g := gen.RMAT(9, 8, 2)
	e := buildEngineR(t, g, 4)
	labels := e.LabelPropagation(30)
	if len(labels) != int(g.NumVertices()) {
		t.Fatalf("labels length %d", len(labels))
	}
	if e.Supersteps > 30 {
		t.Errorf("supersteps %d exceeded cap", e.Supersteps)
	}
}

func TestAppsAccountCommunication(t *testing.T) {
	// Any partitioning with RF > 1 must charge replica-sync bytes for every
	// app; the engine's Table-5 COM column depends on it.
	g := gen.RMAT(9, 8, 7)
	e := buildEngineR(t, g, 8)
	apps := []struct {
		name string
		run  func()
	}{
		{"coreness", func() { e.Coreness() }},
		{"triangles", func() { e.Triangles() }},
		{"lpa", func() { e.LabelPropagation(10) }},
	}
	for _, app := range apps {
		e.ResetStats()
		app.run()
		if e.CommBytes <= 0 {
			t.Errorf("%s: no communication accounted", app.name)
		}
		if e.Supersteps <= 0 {
			t.Errorf("%s: no supersteps accounted", app.name)
		}
	}
}
