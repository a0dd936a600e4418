package store

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

// shardPacked groups a graph's canonical edges by a random owner into the
// per-shard packed lists BuildFromShards consumes.
func shardPacked(g *graph.Graph, numShards int, seed int64) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	packed := make([][]uint64, numShards)
	for i := int64(0); i < g.NumEdges(); i++ {
		e := g.Edge(i)
		s := rng.Intn(numShards)
		packed[s] = append(packed[s], graph.PackEdge(e.U, e.V))
	}
	return packed
}

// assertStoresEqual checks two stores answer every routing and adjacency
// query identically.
func assertStoresEqual(t *testing.T, a, b *Store) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape mismatch: (%d,%d) vs (%d,%d)",
			a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for s := 0; s < a.NumShards(); s++ {
		if a.ShardEdges(s) != b.ShardEdges(s) {
			t.Fatalf("shard %d edges %d vs %d", s, a.ShardEdges(s), b.ShardEdges(s))
		}
	}
	for v := graph.Vertex(0); v < a.NumVertices(); v++ {
		if !slices.Equal(a.Replicas(v), b.Replicas(v)) {
			t.Fatalf("replicas[%d] %v vs %v", v, a.Replicas(v), b.Replicas(v))
		}
		na, _ := a.Neighbors(v)
		nb, _ := b.Neighbors(v)
		if !slices.Equal(na, nb) {
			t.Fatalf("neighbors[%d] %v vs %v", v, na, nb)
		}
	}
}

// TestBuildFromShardsMatchesBuildPartitioning: the two construction paths
// must produce identical stores for the same edge-to-shard assignment.
func TestBuildFromShardsMatchesBuildPartitioning(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			p := randomPartitioning(g, 4, 7)
			a, err := BuildPartitioning(g, p)
			if err != nil {
				t.Fatal(err)
			}
			packed := make([][]uint64, 4)
			for i, o := range p.Owner {
				e := g.Edge(int64(i))
				packed[o] = append(packed[o], graph.PackEdge(e.U, e.V))
			}
			b, err := BuildFromShards(g.NumVertices(), packed)
			if err != nil {
				t.Fatal(err)
			}
			assertStoresEqual(t, a, b)
		})
	}
}

func TestBuildFromShardsRejectsBadInput(t *testing.T) {
	cases := []struct {
		name   string
		n      uint32
		packed [][]uint64
	}{
		{"no shards", 4, nil},
		{"out of range", 4, [][]uint64{{graph.PackEdge(1, 9)}}},
		{"self loop", 4, [][]uint64{{uint64(2)<<32 | 2}}},
		{"non-canonical", 4, [][]uint64{{uint64(3)<<32 | 1}}},
		{"duplicate in shard", 4, [][]uint64{{graph.PackEdge(0, 1), graph.PackEdge(0, 1)}}},
		{"unsorted shard", 4, [][]uint64{{graph.PackEdge(1, 2), graph.PackEdge(0, 1)}}},
		{"edge in two shards", 4, [][]uint64{{graph.PackEdge(0, 1), graph.PackEdge(1, 2)}, {graph.PackEdge(1, 2), graph.PackEdge(2, 3)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := BuildFromShards(tc.n, tc.packed); err == nil {
				t.Fatalf("accepted bad input")
			}
		})
	}
}

// randomOverlay mutates the base store over the per-shard packed lists
// packed, whose |V| is n, through a Writer, and returns the resulting epoch
// with the live edges per shard that a plain map model of the same
// mutations holds: the from-scratch truth the epoch must match. It deletes
// each base edge with probability 1/delOneIn (none when delOneIn is 0), then
// tries adds seeded insertions between ids below n+mint, so mint > 0 names
// vertex ids beyond the base; an insertion of a live edge is skipped, since
// an edge lives on one shard. Then, as many times as it inserted, it picks a
// base edge or an inserted one: a live one it deletes or moves to another
// shard, a deleted one it re-inserts on another shard. Every 61st mutation is
// preceded by an epoch, which seals the pending mutations into a run, so the
// returned epoch spans several runs and the mutations of one edge span runs.
// Before each mutation, the writer's owner of the edge must be the model's.
func randomOverlay(t testing.TB, base *Store, packed [][]uint64, n graph.Vertex, delOneIn, adds, mint int, seed int64) (*Epoch, [][]uint64) {
	t.Helper()
	numShards := len(packed)
	rng := rand.New(rand.NewSource(seed))
	w := NewWriter(base)
	live := map[uint64]int{}
	for s, keys := range packed {
		for _, k := range keys {
			live[k] = s
		}
	}
	ops := 0
	owner := func(k uint64) int {
		t.Helper()
		e := graph.UnpackEdge(k)
		s, ok := live[k]
		if !ok {
			s = int(dead)
		}
		if got := w.Owner(e.U, e.V); int(got) != s {
			t.Fatalf("writer owner of (%d,%d) = %d, model %d", e.U, e.V, got, s)
		}
		if ops++; ops%61 == 0 {
			w.Epoch(0)
		}
		return s
	}
	for s := 0; s < numShards && delOneIn > 0; s++ {
		for _, k := range packed[s] {
			if rng.Intn(delOneIn) == 0 {
				owner(k)
				e := graph.UnpackEdge(k)
				w.Remove(s, e.U, e.V)
				delete(live, k)
			}
		}
	}
	var inserted []uint64
	for i := 0; i < adds; i++ {
		u := graph.Vertex(rng.Intn(int(n)))
		v := graph.Vertex(rng.Intn(int(n) + mint))
		if u == v {
			continue
		}
		u, v = min(u, v), max(u, v)
		k := graph.PackEdge(u, v)
		if owner(k) != int(dead) {
			continue
		}
		s := rng.Intn(numShards)
		w.Add(s, u, v)
		live[k] = s
		inserted = append(inserted, k)
	}
	baseKeys := slices.Concat(packed...)
	for range inserted {
		pool := inserted
		if len(baseKeys) > 0 && rng.Intn(2) == 0 {
			pool = baseKeys
		}
		k := pool[rng.Intn(len(pool))]
		e := graph.UnpackEdge(k)
		switch s := owner(k); {
		case s == int(dead):
			to := rng.Intn(numShards)
			w.Add(to, e.U, e.V)
			live[k] = to
		case numShards == 1 || rng.Intn(2) == 0:
			w.Remove(s, e.U, e.V)
			delete(live, k)
		default:
			to := (s + 1 + rng.Intn(numShards-1)) % numShards
			w.Remove(s, e.U, e.V)
			w.Add(to, e.U, e.V)
			live[k] = to
		}
	}
	want := make([][]uint64, numShards)
	for k, s := range live {
		want[s] = append(want[s], k)
	}
	for _, ks := range want {
		slices.Sort(ks)
	}
	return w.Epoch(1), want
}

// overlayGraph is the whole graph an epoch with live edges want per shard
// serves, on the epoch's vertex range.
func overlayGraph(ep *Epoch, want [][]uint64) *graph.Graph {
	return graph.FromPacked(ep.NumVertices(), slices.Concat(want...))
}

// TestEpochOverlayMatchesRebuild: an epoch's every query must agree with a
// store rebuilt from scratch on the delta-applied edge set — including
// neighbors, KHop results, and the compacted store itself.
func TestEpochOverlayMatchesRebuild(t *testing.T) {
	g := gen.RMAT(9, 8, 3)
	const numShards = 4
	packed := shardPacked(g, numShards, 11)
	base, err := BuildFromShards(g.NumVertices(), packed)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate: delete a seeded sample of base edges, insert fresh edges —
	// some between existing vertices, some minting new vertex ids.
	n := g.NumVertices()
	ep, want := randomOverlay(t, base, packed, n, 10, 500, 40, 5)
	ref, err := BuildFromShards(ep.NumVertices(), want)
	if err != nil {
		t.Fatal(err)
	}

	for s := 0; s < numShards; s++ {
		if ep.ShardEdges(s) != ref.ShardEdges(s) {
			t.Fatalf("shard %d: epoch %d, rebuilt %d", s, ep.ShardEdges(s), ref.ShardEdges(s))
		}
		if !slices.Equal(ep.ShardEdgesPacked(s), want[s]) {
			t.Fatalf("shard %d packed edges diverge", s)
		}
	}
	for v := graph.Vertex(0); v < ep.NumVertices(); v++ {
		ne, _ := ep.Neighbors(v)
		nr, _ := ref.Neighbors(v)
		if !slices.Equal(ne, nr) {
			t.Fatalf("neighbors[%d] epoch %v, rebuilt %v", v, ne, nr)
		}
	}
	ctx := context.Background()
	for _, src := range []graph.Vertex{0, 1, 17, n - 1} {
		for _, k := range []int{1, 2, 3} {
			re, err := ep.KHop(ctx, src, k)
			if err != nil {
				t.Fatal(err)
			}
			rr, err := ref.KHop(ctx, src, k)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(re.Vertices, rr.Vertices) || !slices.Equal(re.Depths, rr.Depths) {
				t.Fatalf("khop(%d,%d) diverges: %d vs %d vertices",
					src, k, len(re.Vertices), len(rr.Vertices))
			}
		}
	}

	// Compaction folds the overlay into a fresh base answering identically.
	compacted, err := compact(ep)
	if err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, compacted, ref)
}

// compact folds ep into a fresh base Store with an empty overlay, the way
// live compaction does: replica lists shed fully-deleted copies and overlay
// vertices join the replica index.
func compact(ep *Epoch) (*Store, error) {
	packed := make([][]uint64, ep.NumShards())
	for s := range packed {
		packed[s] = ep.ShardEdgesPacked(s)
	}
	return BuildFromShards(ep.NumVertices(), packed)
}

// TestDeltaRemoveAddCancels: retracting an overlay insertion restores the
// exact prior state, so (add, del) pairs of the same edge cancel, whether
// the deletion meets the insertion among the pending mutations or in a run
// an earlier epoch sealed; and an epoch pinned between the two keeps the
// edge.
func TestDeltaRemoveAddCancels(t *testing.T) {
	g := gen.ER(200, 800, 9)
	packed := shardPacked(g, 3, 2)
	base, err := BuildFromShards(g.NumVertices(), packed)
	if err != nil {
		t.Fatal(err)
	}
	u, v := graph.Vertex(5), graph.Vertex(9)
	for base.owner(u, v) != dead {
		v++
	}
	w := NewWriter(base)
	w.Add(0, u, v)
	w.Remove(0, u, v)
	if q := w.Owner(u, v); q != dead {
		t.Fatalf("retracted pending insertion still owned by %d", q)
	}
	w.Add(1, u, v)
	if q := w.Owner(u, v); q != 1 {
		t.Fatalf("add not visible: owner %d, want 1", q)
	}
	pinned := w.Epoch(1)
	w.Remove(1, u, v)
	if added, deleted := w.Mutations(); added != 0 || deleted != 0 || w.Owner(u, v) != dead {
		t.Fatalf("retraction left residue: %d added, %d deleted, owner %d", added, deleted, w.Owner(u, v))
	}
	ep := w.Epoch(2)
	if added, deleted := ep.OverlayEdges(); added != 0 || deleted != 0 {
		t.Fatalf("epoch overlay debt %d/%d, want none", added, deleted)
	}
	for s := 0; s < 3; s++ {
		if !slices.Equal(ep.ShardEdgesPacked(s), packed[s]) || ep.ShardEdges(s) != base.ShardEdges(s) {
			t.Fatalf("shard %d drifted from the base", s)
		}
	}
	for x := graph.Vertex(0); x < base.NumVertices(); x++ {
		ne, _ := ep.Neighbors(x)
		nb, _ := base.Neighbors(x)
		if !slices.Equal(ne, nb) {
			t.Fatalf("neighbors[%d] drifted: %v vs %v", x, ne, nb)
		}
	}
	if ns, _ := pinned.Neighbors(u); !slices.Contains(ns, v) {
		t.Fatalf("epoch pinned before the retraction lost (%d,%d): %v", u, v, ns)
	}
}

// TestEpochQueriesCountIntoBase: an epoch with an overlay answers on the
// same instrumented path as its base store, so its queries land in the
// base's Metrics — counts, touches, hops and tasks alike.
func TestEpochQueriesCountIntoBase(t *testing.T) {
	g := gen.ER(200, 800, 4)
	base, err := BuildFromShards(g.NumVertices(), shardPacked(g, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(base)
	w.Add(2, 3, g.NumVertices()+1) // mints a vertex beyond the base
	ep := w.Epoch(1)
	ctx := context.Background()
	if _, err := ep.Neighbors(3); err != nil {
		t.Fatal(err)
	}
	res, err := ep.KHop(ctx, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Neighbors(ep.NumVertices()); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	m := base.Metrics()
	if m.NeighborsQueries != 2 || m.KHopQueries != 1 {
		t.Fatalf("base counted %+v, want 2 neighbors, 1 khop", m)
	}
	reps := int64(len(ep.Replicas(3)))
	if want := crossHops(int(reps)) + res.CrossShardHops; m.CrossShardHops != want {
		t.Errorf("base hops %d, want %d", m.CrossShardHops, want)
	}
	if m.ShardTasks != res.ShardTasks {
		t.Errorf("base tasks %d, want %d", m.ShardTasks, res.ShardTasks)
	}
	var touches int64
	for _, c := range m.PerShardTouches {
		touches += c
	}
	if want := reps + res.ShardTasks; touches != want {
		t.Errorf("base touches %d, want %d", touches, want)
	}
}

// TestBuildFromShardsAllocsIndependentOfVertexCount: a store build
// allocates a fixed number of objects per shard — vertex list, offsets,
// targets — plus the shared scratch and the replica index, and none per
// vertex or per edge.
func TestBuildFromShardsAllocsIndependentOfVertexCount(t *testing.T) {
	const shards = 8
	g := gen.RMAT(12, 8, 5)
	packed := shardPacked(g, shards, 5)
	got := testing.AllocsPerRun(3, func() {
		if _, err := BuildFromShards(g.NumVertices(), packed); err != nil {
			t.Fatal(err)
		}
	})
	if got > 16*shards+32 {
		t.Errorf("BuildFromShards allocates %.0f objects at |V| = %d, want at most %d", got, g.NumVertices(), 16*shards+32)
	}
}
