package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

// khopper is what the KHop tests query: a Store or an Epoch.
type khopper interface {
	KHop(ctx context.Context, v graph.Vertex, k int) (*KHopResult, error)
	Replicas(v graph.Vertex) []int32
}

// checkKHop runs q.KHop(src, k) and compares every field of the result with
// bfsOracle over g, the whole graph q serves. The oracle's costs come from
// its own levels: each expanded level (depths 0..k-1) pays crossHops per
// vertex and one shard task per distinct replica shard of the level.
func checkKHop(t *testing.T, name string, q khopper, g *graph.Graph, src graph.Vertex, k int) {
	t.Helper()
	got, err := q.KHop(context.Background(), src, k)
	if err != nil {
		t.Fatalf("%s: khop(%d,%d): %v", name, src, k, err)
	}
	wantV, wantD := bfsOracle(g, src, k)
	if !slices.Equal(got.Vertices, wantV) || !slices.Equal(got.Depths, wantD) {
		t.Fatalf("%s: khop(%d,%d) found %d vertices, oracle %d (or depths differ)",
			name, src, k, len(got.Vertices), len(wantV))
	}
	var wantLevels []int64
	var wantHops, wantTasks int64
	for i := 0; i < len(wantV); {
		j := i
		for j < len(wantV) && wantD[j] == wantD[i] {
			j++
		}
		wantLevels = append(wantLevels, int64(j-i))
		if int(wantD[i]) < k {
			touched := map[int32]bool{}
			for _, u := range wantV[i:j] {
				reps := q.Replicas(u)
				wantHops += crossHops(len(reps))
				for _, s := range reps {
					touched[s] = true
				}
			}
			wantTasks += int64(len(touched))
		}
		i = j
	}
	if !slices.Equal(got.LevelSizes, wantLevels) {
		t.Fatalf("%s: khop(%d,%d) level sizes %v, oracle %v", name, src, k, got.LevelSizes, wantLevels)
	}
	if got.CrossShardHops != wantHops || got.ShardTasks != wantTasks {
		t.Fatalf("%s: khop(%d,%d) hops/tasks %d/%d, oracle %d/%d",
			name, src, k, got.CrossShardHops, got.ShardTasks, wantHops, wantTasks)
	}
}

// TestKHopOverlayMatchesOracle: on epochs with overlay adds, with deletes,
// and with adds that mint vertex ids beyond the base, KHop equals the oracle
// over the delta-applied graph for k ∈ 0..4, and so does the compacted
// rebuild of each epoch.
func TestKHopOverlayMatchesOracle(t *testing.T) {
	g := gen.RMAT(8, 8, 5)
	n := g.NumVertices()
	const numShards = 5
	packed := shardPacked(g, numShards, 6)
	base, err := BuildFromShards(n, packed)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name                 string
		delOneIn, adds, mint int
	}{
		{"adds", 0, 300, 0},
		{"deletes", 4, 0, 0},
		{"minting adds and deletes", 8, 300, 60},
	}
	for _, tc := range cases {
		ep, edges := randomOverlay(t, base, packed, n, tc.delOneIn, tc.adds, tc.mint, 7)
		if tc.mint > 0 && ep.NumVertices() <= n {
			t.Fatalf("%s: no vertex minted beyond %d", tc.name, n)
		}
		want := overlayGraph(ep, edges)
		compacted, err := compact(ep)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(8))
		for trial := 0; trial < 12; trial++ {
			src := graph.Vertex(rng.Intn(int(ep.NumVertices())))
			for k := 0; k <= 4; k++ {
				checkKHop(t, tc.name+"/epoch", ep, want, src, k)
				checkKHop(t, tc.name+"/compacted", compacted, want, src, k)
			}
		}
	}
}

// TestKHopScratchAcrossSizes alternates stores and epochs of different |V|
// on one goroutine, so each query's scratch was last sized and used for a
// graph of another size, and must still come back clean.
func TestKHopScratchAcrossSizes(t *testing.T) {
	small := gen.ER(100, 300, 1)
	big := gen.RMAT(10, 8, 2)
	smallPacked := shardPacked(small, 3, 3)
	smallSt, err := BuildFromShards(small.NumVertices(), smallPacked)
	if err != nil {
		t.Fatal(err)
	}
	bigSt := buildRandom(t, big, 6, 4)
	grown, edges := randomOverlay(t, smallSt, smallPacked, small.NumVertices(), 5, 200, 900, 5) // larger than its base
	grownG := overlayGraph(grown, edges)

	targets := []struct {
		name string
		q    khopper
		g    *graph.Graph
	}{
		{"small", smallSt, small},
		{"big", bigSt, big},
		{"grown epoch", grown, grownG},
	}
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 60; round++ {
		tg := targets[rng.Intn(len(targets))]
		src := graph.Vertex(rng.Intn(int(tg.g.NumVertices())))
		checkKHop(t, tg.name, tg.q, tg.g, src, rng.Intn(5))
	}
}

// checkScratchClean fails unless the pooled KHop scratch is clean: between
// queries every bit of the level and visited bitsets is clear, over their
// whole capacity, so that no mark leaks into the next query on this
// goroutine, whatever the size of the graph it queries.
func checkScratchClean(t *testing.T, name string) {
	t.Helper()
	sc := khopPool.Get().(*khopScratch)
	defer khopPool.Put(sc)
	for _, bitset := range [][]uint64{sc.level[:cap(sc.level)], sc.visited[:cap(sc.visited)]} {
		for i, word := range bitset {
			if word != 0 {
				t.Fatalf("%s: scratch word %d is %#x after the query, want 0", name, i, word)
			}
		}
	}
}

// cliqueEdges returns the edges of the clique on the ids [lo, hi).
func cliqueEdges(lo, hi graph.Vertex) []graph.Edge {
	var edges []graph.Edge
	for u := lo; u < hi; u++ {
		for v := u + 1; v < hi; v++ {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	return edges
}

// TestKHopMarksOnVisitedVertices runs KHop where most marks land on vertices
// already visited, which the level bitset holds until the level is settled:
// a clique wider than one bitset word, a star entered through its hub and
// through a leaf, and two cliques joined by a path. Every answer for
// k ∈ 0..4 on 1, 3 and 8 shards, on the base store and on an overlay epoch
// over it, must equal the oracle's, and each query must leave the scratch
// clean for the next one on the goroutine.
func TestKHopMarksOnVisitedVertices(t *testing.T) {
	path := []graph.Edge{{U: 99, V: 100}, {U: 100, V: 101}, {U: 101, V: 102}, {U: 102, V: 103}}
	cases := []struct {
		name string
		g    *graph.Graph
		srcs []graph.Vertex
	}{
		{"clique", graph.FromEdges(200, cliqueEdges(0, 200)), []graph.Vertex{0, 63, 64, 199}},
		{"star", gen.Star(300), []graph.Vertex{0, 1, 150, 299}},
		{"two cliques and a path", graph.FromEdges(203, slices.Concat(cliqueEdges(0, 100), path, cliqueEdges(103, 203))),
			[]graph.Vertex{0, 99, 101, 103, 202}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkKHopOnVisited(t, tc.g, tc.srcs)
		})
	}
}

// checkKHopOnVisited checks KHop from srcs for k ∈ 0..4 on g over 1, 3 and
// 8 shards, on the base store and on an overlay epoch over it, and that each
// query leaves the scratch clean.
func checkKHopOnVisited(t *testing.T, g *graph.Graph, srcs []graph.Vertex) {
	t.Helper()
	n := g.NumVertices()
	for _, parts := range []int{1, 3, 8} {
		packed := shardPacked(g, parts, int64(parts))
		st, err := BuildFromShards(n, packed)
		if err != nil {
			t.Fatal(err)
		}
		ep, edges := randomOverlay(t, st, packed, n, 5, 100, 20, int64(parts))
		targets := []struct {
			name string
			q    khopper
			g    *graph.Graph
		}{
			{fmt.Sprintf("%d shards/base", parts), st, g},
			{fmt.Sprintf("%d shards/overlay", parts), ep, overlayGraph(ep, edges)},
		}
		for _, tg := range targets {
			for _, src := range srcs {
				for k := 0; k <= 4; k++ {
					checkKHop(t, tg.name, tg.q, tg.g, src, k)
					checkScratchClean(t, tg.name)
				}
			}
		}
	}
}

// khopSink keeps BenchmarkKHop's results live.
var khopSink *KHopResult

// BenchmarkKHop runs 2-hop traversals from a seeded cycle of sources. Two
// cases run on RMAT 12 (edge factor 16) over 8 random shards: the base store,
// and an overlay epoch over it with deletes, adds and ids minted beyond the
// base. The serve-read case has the shape of the end-to-end workload of that
// name: RMAT 15, edge factor 16, DNE at 8 parts. Every case reports
// verts/op, the mean result size, so that ns/op reads against the work a
// query does.
func BenchmarkKHop(b *testing.B) {
	g := gen.RMAT(12, 16, 1)
	n := g.NumVertices()
	packed := shardPacked(g, 8, 2)
	st, err := BuildFromShards(n, packed)
	if err != nil {
		b.Fatal(err)
	}
	ep, _ := randomOverlay(b, st, packed, n, 20, 2000, 100, 3)

	serve := gen.RMAT(15, 16, 1)
	cfg := dne.DefaultConfig()
	cfg.Seed = 1
	part, err := dne.PartitionCtx(context.Background(), serve, 8, cfg)
	if err != nil {
		b.Fatal(err)
	}
	serveSt, err := BuildPartitioning(serve, part.Partitioning)
	if err != nil {
		b.Fatal(err)
	}

	ctx := context.Background()
	for _, tc := range []struct {
		name string
		q    khopper
		n    uint32
	}{{"base", st, n}, {"overlay", ep, n}, {"serve-read", serveSt, serve.NumVertices()}} {
		rng := rand.New(rand.NewSource(4))
		srcs := make([]graph.Vertex, 1024)
		for i := range srcs {
			srcs[i] = graph.Vertex(rng.Intn(int(tc.n)))
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			verts := 0
			for i := 0; i < b.N; i++ {
				res, err := tc.q.KHop(ctx, srcs[i%len(srcs)], 2)
				if err != nil {
					b.Fatal(err)
				}
				verts += len(res.Vertices)
				khopSink = res
			}
			b.ReportMetric(float64(verts)/float64(b.N), "verts/op")
		})
	}
}

// cancelAfter is a context whose Err reports cancellation from its
// (n+1)-th call on, so a traversal stops after n levels.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestKHopCancelledMidTraversal: a KHop cancelled after some levels returns
// the context's error, and the next query on the same goroutine is still
// exact — the abandoned traversal's marks do not leak into it.
func TestKHopCancelledMidTraversal(t *testing.T) {
	g := gen.RMAT(10, 8, 6)
	st := buildRandom(t, g, 4, 6)
	var hub graph.Vertex
	for v := graph.Vertex(0); v < g.NumVertices(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	rng := rand.New(rand.NewSource(10))
	for levels := 0; levels < 4; levels++ {
		_, err := st.KHop(&cancelAfter{Context: context.Background(), n: levels}, hub, 4)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled after %d levels: err %v, want context.Canceled", levels, err)
		}
		for q := 0; q < 3; q++ {
			checkKHop(t, "after cancel", st, g, graph.Vertex(rng.Intn(int(g.NumVertices()))), 3)
		}
		checkKHop(t, "after cancel", st, g, hub, 2)
	}
}
