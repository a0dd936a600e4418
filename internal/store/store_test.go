package store

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// randomPartitioning assigns every edge a uniform random owner.
func randomPartitioning(g *graph.Graph, numParts int, seed int64) *partition.Partitioning {
	rng := rand.New(rand.NewSource(seed))
	p := partition.New(numParts, g.NumEdges())
	for i := range p.Owner {
		p.Owner[i] = int32(rng.Intn(numParts))
	}
	return p
}

// rangePartitioning assigns contiguous edge ranges to parts — a low-RF
// baseline for locality-sensitive tests (canonical edge order groups edges
// by their smaller endpoint).
func rangePartitioning(g *graph.Graph, numParts int) *partition.Partitioning {
	p := partition.New(numParts, g.NumEdges())
	m := g.NumEdges()
	for i := range p.Owner {
		p.Owner[i] = int32(int64(i) * int64(numParts) / m)
	}
	return p
}

func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	return map[string]*graph.Graph{
		"rmat":   gen.RMAT(8, 8, 1),
		"er":     gen.ER(500, 2000, 2),
		"road":   gen.Road(20, 20, 3),
		"star":   gen.Star(64),
		"single": graph.FromEdges(0, []graph.Edge{{U: 0, V: 1}}),
	}
}

func buildRandom(t testing.TB, g *graph.Graph, parts int, seed int64) *Store {
	t.Helper()
	st, err := BuildPartitioning(g, randomPartitioning(g, parts, seed))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return st
}

func TestBuildRejectsIncomplete(t *testing.T) {
	g := gen.ER(50, 100, 1)
	p := partition.New(4, g.NumEdges()) // all unassigned
	if _, err := BuildPartitioning(g, p); err == nil {
		t.Fatal("incomplete partitioning accepted")
	}
}

// TestRoutingInvariants checks the replica index against partition.Quality:
// its totals match exactly, a covered vertex has in-range replicas sorted by
// shard id, and an isolated vertex has none.
func TestRoutingInvariants(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, parts := range []int{1, 3, 8} {
			p := randomPartitioning(g, parts, 42)
			st, err := BuildPartitioning(g, p)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, parts, err)
			}
			q := p.Measure(g)
			var shardVertTotal int
			for s := 0; s < st.NumShards(); s++ {
				shardVertTotal += st.ShardVertices(s)
			}
			if int64(shardVertTotal) != q.Replicas {
				t.Errorf("%s/%d: shard vertex total %d != replicas %d", name, parts, shardVertTotal, q.Replicas)
			}
			for v := graph.Vertex(0); v < g.NumVertices(); v++ {
				reps := st.Replicas(v)
				if g.Degree(v) > 0 {
					if len(reps) == 0 || reps[0] < 0 || int(reps[len(reps)-1]) >= parts || !slices.IsSorted(reps) {
						t.Fatalf("%s/%d: covered vertex %d has replicas %v", name, parts, v, reps)
					}
				} else if len(reps) != 0 {
					t.Fatalf("%s/%d: isolated vertex %d has replicas %v", name, parts, v, reps)
				}
			}
			if reps := st.Replicas(g.NumVertices()); reps != nil {
				t.Errorf("%s/%d: out-of-range vertex has replicas %v", name, parts, reps)
			}
		}
	}
}

// TestDegreeAndNeighborsMatchGraph checks that sharded neighbor queries
// reassemble exactly the underlying graph's adjacency, degree included.
func TestDegreeAndNeighborsMatchGraph(t *testing.T) {
	for name, g := range testGraphs(t) {
		st := buildRandom(t, g, 5, 7)
		for v := graph.Vertex(0); v < g.NumVertices(); v++ {
			ns, err := st.Neighbors(v)
			if err != nil {
				t.Fatal(err)
			}
			want := append([]graph.Vertex(nil), g.Neighbors(v)...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if int64(len(ns)) != g.Degree(v) {
				t.Fatalf("%s: neighbors(%d) len %d, want degree %d", name, v, len(ns), g.Degree(v))
			}
			for i := range ns {
				if ns[i] != want[i] {
					t.Fatalf("%s: neighbors(%d)[%d] = %d, want %d", name, v, i, ns[i], want[i])
				}
			}
		}
		if _, err := st.Neighbors(g.NumVertices()); err == nil {
			t.Error("out-of-range neighbors accepted")
		}
	}
}

// bfsOracle is a single-threaded BFS over g up to depth k, returning
// (vertices sorted by depth then id, parallel depths).
func bfsOracle(g *graph.Graph, src graph.Vertex, k int) ([]graph.Vertex, []int32) {
	dist := make([]int32, g.NumVertices())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	frontier := []graph.Vertex{src}
	verts := []graph.Vertex{src}
	depths := []int32{0}
	for d := int32(1); int(d) <= k && len(frontier) > 0; d++ {
		var next []graph.Vertex
		for _, u := range frontier {
			for _, w := range g.Neighbors(u) {
				if dist[w] < 0 {
					dist[w] = d
					next = append(next, w)
				}
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		for _, w := range next {
			verts = append(verts, w)
			depths = append(depths, d)
		}
		frontier = next
	}
	return verts, depths
}

// TestKHopMatchesOracle is the tentpole acceptance test: the level-by-level
// BFS over shards equals a single-threaded BFS on the whole graph, in its
// vertices, depths, level sizes, cross-shard hops and shard tasks, for
// k ∈ 0..4.
func TestKHopMatchesOracle(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, parts := range []int{1, 4, 7} {
			st := buildRandom(t, g, parts, 99)
			rng := rand.New(rand.NewSource(13))
			for trial := 0; trial < 10; trial++ {
				src := graph.Vertex(rng.Intn(int(g.NumVertices())))
				for k := 0; k <= 4; k++ {
					checkKHop(t, fmt.Sprintf("%s/%d", name, parts), st, g, src, k)
				}
			}
		}
	}
}

func TestKHopEdgeCases(t *testing.T) {
	g := gen.ER(100, 300, 1)
	st := buildRandom(t, g, 4, 1)
	res, err := st.KHop(context.Background(), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vertices) != 1 || res.Vertices[0] != 3 || res.CrossShardHops != 0 {
		t.Fatalf("0-hop result %+v", res)
	}
	if _, err := st.KHop(context.Background(), 1000, 2); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := st.KHop(context.Background(), 0, -1); err == nil {
		t.Error("negative k accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.KHop(ctx, 0, 3); err == nil {
		t.Error("cancelled context not honored")
	}
}

// TestCrossShardHopsTrackReplication checks the economic claim of the
// subsystem: a single shard serves with zero cross-shard hops, and a
// partitioning with higher replication factor pays more hops on the same
// workload than a lower-RF one.
func TestCrossShardHopsTrackReplication(t *testing.T) {
	g := gen.RMAT(9, 8, 4)
	ctx := context.Background()

	one := buildRandom(t, g, 1, 1)
	lowRF, err := BuildPartitioning(g, rangePartitioning(g, 8))
	if err != nil {
		t.Fatal(err)
	}
	highRF := buildRandom(t, g, 8, 2) // random assignment maximizes RF

	// Both stores span g's vertices, so replica totals order their RFs.
	replicas := func(st *Store) (n int) {
		for s := range st.NumShards() {
			n += st.ShardVertices(s)
		}
		return n
	}
	if replicas(lowRF) >= replicas(highRF) {
		t.Fatalf("test premise broken: range replicas %d >= random replicas %d", replicas(lowRF), replicas(highRF))
	}

	workload := func(st *Store) int64 {
		st.ResetMetrics()
		rng := rand.New(rand.NewSource(7))
		for q := 0; q < 50; q++ {
			v := graph.Vertex(rng.Intn(int(g.NumVertices())))
			if _, err := st.Neighbors(v); err != nil {
				t.Fatal(err)
			}
			if _, err := st.KHop(ctx, v, 2); err != nil {
				t.Fatal(err)
			}
		}
		return st.Metrics().CrossShardHops
	}

	hOne, hLow, hHigh := workload(one), workload(lowRF), workload(highRF)
	if hOne != 0 {
		t.Errorf("single shard paid %d cross-shard hops", hOne)
	}
	if hLow >= hHigh {
		t.Errorf("low-RF store paid %d hops, high-RF %d; expected fewer", hLow, hHigh)
	}
}

func TestMetricsCounts(t *testing.T) {
	g := gen.ER(100, 400, 9)
	st := buildRandom(t, g, 4, 9)
	ctx := context.Background()
	if _, err := st.Neighbors(2); err != nil {
		t.Fatal(err)
	}
	if _, err := st.KHop(ctx, 3, 2); err != nil {
		t.Fatal(err)
	}
	m := st.Metrics()
	if m.NeighborsQueries != 1 || m.KHopQueries != 1 {
		t.Errorf("query counts %+v", m)
	}
	if m.Queries() != 2 {
		t.Errorf("Queries() = %d", m.Queries())
	}
	var touches int64
	for _, c := range m.PerShardTouches {
		touches += c
	}
	if touches == 0 {
		t.Error("no shard touches recorded")
	}
	if m.TotalLatency <= 0 {
		t.Error("no latency recorded")
	}
	if m.HopsPerQuery() < 0 {
		t.Error("negative hops per query")
	}
	st.ResetMetrics()
	if st.Metrics().Queries() != 0 {
		t.Error("reset did not zero counters")
	}
}

// TestConcurrentQueries runs the query mix from parallel goroutines against
// a store and against an overlay epoch over it, checking every KHop answer
// against the oracle; the CI race job (go test -race) makes this a
// data-race check of the shared store, overlay and pooled KHop scratch.
func TestConcurrentQueries(t *testing.T) {
	g := gen.RMAT(8, 8, 11)
	packed := shardPacked(g, 6, 11)
	st, err := BuildFromShards(g.NumVertices(), packed)
	if err != nil {
		t.Fatal(err)
	}
	ep, edges := randomOverlay(t, st, packed, g.NumVertices(), 6, 200, 30, 12)
	type target interface {
		Neighbors(graph.Vertex) ([]graph.Vertex, error)
		KHop(context.Context, graph.Vertex, int) (*KHopResult, error)
	}
	targets := []struct {
		q target
		g *graph.Graph
	}{{st, g}, {ep, overlayGraph(ep, edges)}}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < 100; q++ {
				tg := targets[q%2]
				v := graph.Vertex(rng.Intn(int(tg.g.NumVertices())))
				switch q % 3 {
				case 0, 1:
					if _, err := tg.q.Neighbors(v); err != nil {
						t.Error(err)
						return
					}
				case 2:
					res, err := tg.q.KHop(ctx, v, 2)
					if err != nil {
						t.Error(err)
						return
					}
					if want, _ := bfsOracle(tg.g, v, 2); !slices.Equal(res.Vertices, want) {
						t.Errorf("khop(%d,2) found %d vertices, oracle %d", v, len(res.Vertices), len(want))
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if got := st.Metrics().Queries(); got != 800 {
		t.Errorf("recorded %d queries, want 800", got)
	}
}
