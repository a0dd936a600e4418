package engine

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/methods"
	_ "github.com/distributedne/dne/internal/methods/all"
	"github.com/distributedne/dne/internal/partition"
)

// buildEngine partitions g with a registry method and wraps the result in
// an Engine.
func buildEngine(t *testing.T, g *graph.Graph, method string, seed int64, parts int) *Engine {
	t.Helper()
	pr, spec, err := methods.New(method, partition.NewSpec(parts, seed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pr.Partition(context.Background(), g, spec)
	if err != nil {
		t.Fatal(err)
	}
	return New(g, res.Partitioning)
}

// refBFS is a sequential reference for SSSP on unweighted graphs.
func refBFS(g *graph.Graph, src graph.Vertex) []int64 {
	n := int(g.NumVertices())
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = math.MaxInt64
	}
	dist[src] = 0
	queue := []graph.Vertex{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if dist[u] == math.MaxInt64 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// refWCC is a sequential union-find reference for connected components.
func refWCC(g *graph.Graph) []graph.Vertex {
	n := int(g.NumVertices())
	parent := make([]graph.Vertex, n)
	for v := range parent {
		parent[v] = graph.Vertex(v)
	}
	var find func(graph.Vertex) graph.Vertex
	find = func(v graph.Vertex) graph.Vertex {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for _, e := range g.Edges() {
		ru, rv := find(e.U), find(e.V)
		if ru != rv {
			if ru < rv {
				parent[rv] = ru
			} else {
				parent[ru] = rv
			}
		}
	}
	labels := make([]graph.Vertex, n)
	for v := range labels {
		labels[v] = find(graph.Vertex(v))
	}
	return labels
}

func TestSSSPMatchesBFSAcrossPartitionings(t *testing.T) {
	g := gen.RMAT(9, 8, 3)
	want := refBFS(g, 0)
	for _, p := range []string{"random", "dne"} {
		e := buildEngine(t, g, p, 1, 4)
		got := e.SSSP(0)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: dist[%d] = %d, want %d", p, v, got[v], want[v])
			}
		}
		if e.CommBytes <= 0 {
			t.Errorf("%s: no communication recorded", p)
		}
	}
}

func TestWCCMatchesUnionFind(t *testing.T) {
	g := gen.RMAT(9, 4, 5)
	want := refWCC(g)
	e := buildEngine(t, g, "grid", 2, 4)
	got := e.WCC()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := gen.RMAT(9, 8, 7)
	e := buildEngine(t, g, "dne", 0, 4)
	pr := e.PageRank(20, 0.85)
	var sum float64
	for v := 0; v < int(g.NumVertices()); v++ {
		// Isolated vertices keep their initial mass but receive no base;
		// only covered vertices participate.
		sum += pr[v]
	}
	// Dangling mass leaks in standard PR without dangling redistribution;
	// the sum must stay within (0.5, 1.001] for this graph family.
	if sum <= 0.5 || sum > 1.001 {
		t.Errorf("pagerank mass = %f, want ~1", sum)
	}
}

func TestPageRankIndependentOfPartitioning(t *testing.T) {
	g := gen.RMAT(8, 8, 11)
	e1 := buildEngine(t, g, "random", 1, 4)
	e2 := buildEngine(t, g, "dne", 0, 4)
	pr1 := e1.PageRank(10, 0.85)
	pr2 := e2.PageRank(10, 0.85)
	for v := range pr1 {
		if math.Abs(pr1[v]-pr2[v]) > 1e-12 {
			t.Fatalf("pr[%d] differs across partitionings: %g vs %g", v, pr1[v], pr2[v])
		}
	}
}

func TestBetterPartitioningReducesCommunication(t *testing.T) {
	g := gen.RMAT(10, 16, 13)
	eRand := buildEngine(t, g, "random", 1, 8)
	eDNE := buildEngine(t, g, "dne", 0, 8)
	eRand.PageRank(5, 0.85)
	eDNE.PageRank(5, 0.85)
	if eDNE.CommBytes >= eRand.CommBytes {
		t.Errorf("DNE comm %d should be below Random comm %d", eDNE.CommBytes, eRand.CommBytes)
	}
}

func TestAppsAccountCommunication(t *testing.T) {
	// Any partitioning with RF > 1 must charge replica-sync bytes for every
	// app; the engine's Table-5 COM column depends on it.
	g := gen.RMAT(9, 8, 7)
	e := buildEngine(t, g, "random", 5, 8)
	apps := []struct {
		name string
		run  func()
	}{
		{"pagerank", func() { e.PageRank(5, 0.85) }},
		{"sssp", func() { e.SSSP(0) }},
		{"wcc", func() { e.WCC() }},
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

func TestWorkloadBalanceReported(t *testing.T) {
	g := gen.RMAT(9, 8, 17)
	e := buildEngine(t, g, "dne", 0, 4)
	e.PageRank(5, 0.85)
	if wb := e.WorkloadBalance(); wb < 1 {
		t.Errorf("workload balance %f < 1", wb)
	}
}

// TestNewAllocsIndependentOfVertexCount: building the engine allocates a
// fixed number of objects per partition — the store's owner buckets, shard
// CSRs and replica index — and none per vertex or per edge.
func TestNewAllocsIndependentOfVertexCount(t *testing.T) {
	const parts = 8
	g := gen.RMAT(12, 8, 5)
	pt := partition.New(parts, g.NumEdges())
	rng := rand.New(rand.NewSource(5))
	for i := range pt.Owner {
		pt.Owner[i] = int32(rng.Intn(parts))
	}
	if got := testing.AllocsPerRun(3, func() { New(g, pt) }); got > 16*parts+32 {
		t.Errorf("New allocates %.0f objects at |V| = %d, want at most %d", got, g.NumVertices(), 16*parts+32)
	}
}

var (
	engineSink *Engine
	prSink     []float64
	wccSink    []graph.Vertex
)

// BenchmarkEngine times building an engine and running PageRank (10
// iterations) and WCC on it: RMAT scale 16, edge factor 16, random owners
// over 16 partitions.
//
//	go test -run='^$' -bench=BenchmarkEngine -benchmem ./internal/engine
func BenchmarkEngine(b *testing.B) {
	const parts = 16
	g := gen.RMAT(16, 16, 1)
	pt := partition.New(parts, g.NumEdges())
	rng := rand.New(rand.NewSource(1))
	for i := range pt.Owner {
		pt.Owner[i] = int32(rng.Intn(parts))
	}
	e := New(g, pt)
	b.Run("New", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engineSink = New(g, pt)
		}
	})
	b.Run("PageRank", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prSink = e.PageRank(10, 0.85)
		}
	})
	b.Run("WCC", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wccSink = e.WCC()
		}
	})
}
