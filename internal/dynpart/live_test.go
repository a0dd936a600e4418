package dynpart_test

// These tests apply dynpart's events to internal/live, the one incremental
// placer, and check the placement behaviour the events are meant to drive:
// event semantics, the α cap, seeding from a static partitioning and the
// bounded rebalance.

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/dynpart"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/live"
	"github.com/distributedne/dne/internal/partition"
)

func open(t *testing.T, parts int) *live.Live {
	t.Helper()
	l, err := live.Open(t.TempDir(), live.Config{NumParts: parts, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// seed returns a live graph seeded from g under p.
func seed(t *testing.T, g *graph.Graph, p *partition.Partitioning) *live.Live {
	t.Helper()
	l, err := live.Create(t.TempDir(), live.Config{Seed: 1}, g, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func allOn(parts int, g *graph.Graph, q int32) *partition.Partitioning {
	p := partition.New(parts, g.NumEdges())
	for i := range p.Owner {
		p.Owner[i] = q
	}
	return p
}

func apply(t *testing.T, l *live.Live, events ...dynpart.Event) int {
	t.Helper()
	n, err := l.Apply(events)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func inserts(g *graph.Graph) []dynpart.Event {
	edges := g.Edges()
	out := make([]dynpart.Event, len(edges))
	for i, e := range edges {
		out[i] = dynpart.Event{Op: dynpart.Add, Edge: e}
	}
	return out
}

// served reads l's current epoch back as a graph and a partitioning of it,
// edges in canonical order.
func served(l *live.Live) (*graph.Graph, *partition.Partitioning) {
	ep := l.Epoch()
	var pairs [][2]uint64 // packed edge, owner
	for q := 0; q < ep.NumShards(); q++ {
		for _, k := range ep.ShardEdgesPacked(q) {
			pairs = append(pairs, [2]uint64{k, uint64(q)})
		}
	}
	slices.SortFunc(pairs, func(a, b [2]uint64) int { return cmp.Compare(a[0], b[0]) })
	keys := make([]uint64, len(pairs))
	p := partition.New(ep.NumShards(), int64(len(pairs)))
	for i, kq := range pairs {
		keys[i], p.Owner[i] = kq[0], int32(kq[1])
	}
	return graph.FromPacked(0, keys), p
}

// replicas is Σ_v |parts(v)| as the live state holds it: its replication
// factor times its live vertex count, once CheckInvariants has matched the
// replica counter against the per-vertex partition rows.
func replicas(t *testing.T, st *live.State) int64 {
	t.Helper()
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return int64(math.Round(st.ReplicationFactor() * float64(st.NumVertices())))
}

func TestAddRemoveRoundTrip(t *testing.T) {
	l := open(t, 4)
	e := graph.Edge{U: 3, V: 1}
	if n := apply(t, l, dynpart.Event{Op: dynpart.Add, Edge: e}); n != 1 {
		t.Fatalf("add changed %d edges", n)
	}
	_, p := served(l)
	if len(p.Owner) != 1 || p.Owner[0] < 0 || p.Owner[0] >= 4 {
		t.Fatalf("owners %v, want one in [0, 4)", p.Owner)
	}
	if ns, err := l.Epoch().Neighbors(3); err != nil || !slices.Equal(ns, []graph.Vertex{1}) {
		t.Fatalf("Neighbors(3) = %v, %v; want [1]", ns, err)
	}
	if reps := l.Epoch().Replicas(1); !slices.Equal(reps, []int32{p.Owner[0]}) {
		t.Fatalf("Replicas(1) = %v, want the owner %d", reps, p.Owner[0])
	}
	st := l.State()
	if l.Stats().NumEdges != 1 || st.NumVertices() != 2 {
		t.Fatalf("counts: E=%d V=%d", l.Stats().NumEdges, st.NumVertices())
	}
	if rf := st.ReplicationFactor(); rf != 1 {
		t.Fatalf("single-edge RF %v, want 1", rf)
	}
	if n := apply(t, l, dynpart.Event{Op: dynpart.Remove, Edge: e}); n != 1 {
		t.Fatal("remove failed")
	}
	if n := apply(t, l, dynpart.Event{Op: dynpart.Remove, Edge: e}); n != 0 {
		t.Fatal("double remove succeeded")
	}
	if l.Stats().NumEdges != 0 || st.NumVertices() != 0 {
		t.Fatalf("not empty after removal: E=%d V=%d", l.Stats().NumEdges, st.NumVertices())
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfLoopAndDuplicateIgnored(t *testing.T) {
	l := open(t, 2)
	if n := apply(t, l, dynpart.Event{Op: dynpart.Add, Edge: graph.Edge{U: 5, V: 5}}); n != 0 {
		t.Errorf("self loop changed %d edges", n)
	}
	n := apply(t, l,
		dynpart.Event{Op: dynpart.Add, Edge: graph.Edge{U: 1, V: 2}},
		dynpart.Event{Op: dynpart.Add, Edge: graph.Edge{U: 2, V: 1}})
	if n != 1 || l.Stats().NumEdges != 1 {
		t.Errorf("duplicate add: changed %d, E=%d", n, l.Stats().NumEdges)
	}
}

func TestStreamingRFBeatsRandomAssignment(t *testing.T) {
	g := gen.RMAT(11, 16, 3)
	const p = 16
	l := open(t, p)
	apply(t, l, inserts(g)...)
	if err := l.State().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Random assignment baseline.
	rp := partition.New(p, g.NumEdges())
	rng := rand.New(rand.NewSource(1))
	for i := range rp.Owner {
		rp.Owner[i] = int32(rng.Intn(p))
	}
	rnd := seed(t, g, rp)
	greedyRF, randomRF := l.State().ReplicationFactor(), rnd.State().ReplicationFactor()
	if greedyRF >= randomRF*0.8 {
		t.Errorf("greedy RF %.3f not clearly below random RF %.3f", greedyRF, randomRF)
	}
}

func TestBalanceRespectsAlpha(t *testing.T) {
	g := gen.RMAT(11, 16, 5)
	l := open(t, 8)
	apply(t, l, inserts(g)...)
	// The cap moves with |E|; at the end balance must be within ~α plus the
	// discreteness of one edge.
	if eb := l.State().EdgeBalance(); eb > 1.15 {
		t.Errorf("edge balance %.3f exceeds α slack", eb)
	}
}

func TestSeedFromDNEAndUpdate(t *testing.T) {
	g := gen.RMAT(10, 8, 7)
	res, err := dne.PartitionCtx(context.Background(), g, 8, dne.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l := seed(t, g, res.Partitioning)
	sg, sp := served(l)
	if !slices.Equal(sg.Edges(), g.Edges()) || !slices.Equal(sp.Owner, res.Partitioning.Owner) {
		t.Fatal("seeded live graph does not serve the seed partitioning")
	}
	// Same replica total; the RF denominators differ (Measure counts
	// isolated vertex ids, live counts live vertices only).
	if got, want := replicas(t, l.State()), res.Partitioning.Measure(g).Replicas; got != want {
		t.Fatalf("seeded replicas %d != static replicas %d", got, want)
	}
	staticRF := l.State().ReplicationFactor()
	// Apply churn: RF must stay within a modest factor of the static
	// quality and invariants must hold.
	apply(t, l, dynpart.Churn(gen.RMAT(10, 8, 99), 5000, 0.2, 42)...)
	if err := l.State().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if rf := l.State().ReplicationFactor(); rf > staticRF*3 {
		t.Errorf("post-churn RF %.3f degraded beyond 3x static %.3f", rf, staticRF)
	}
}

func TestSnapshotMatchesInternalMetrics(t *testing.T) {
	g := gen.RMAT(9, 8, 2)
	l := open(t, 4)
	apply(t, l, inserts(g)...)
	apply(t, l, dynpart.Churn(g, 3000, 0.4, 5)...)
	snap, pt := served(l)
	if err := pt.Validate(snap); err != nil {
		t.Fatal(err)
	}
	if snap.NumEdges() != l.Stats().NumEdges {
		t.Fatalf("snapshot holds %d edges, state %d", snap.NumEdges(), l.Stats().NumEdges)
	}
	// The partitioning's measured RF uses |V| = snap.NumVertices(), which
	// counts isolated ids in [0,max]; live counts live vertices only.
	// Compare via replicas instead.
	if got, want := pt.Measure(snap).Replicas, replicas(t, l.State()); got != want {
		t.Errorf("snapshot replicas %d != live replicas %d", got, want)
	}
}

func TestRebalanceReducesOverload(t *testing.T) {
	// Force an overload: seed everything on partition 0, then rebalance
	// with a big budget.
	g := gen.RMAT(9, 8, 4)
	l := seed(t, g, allOn(4, g, 0))
	before := l.State().EdgeBalance()
	moved, err := l.Rebalance(int(g.NumEdges()))
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("rebalance moved nothing")
	}
	if err := l.State().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if after := l.State().EdgeBalance(); after >= before {
		t.Errorf("balance %.3f did not improve from %.3f", after, before)
	}
	if l.Stats().Moved != int64(moved) {
		t.Errorf("Moved() %d != %d", l.Stats().Moved, moved)
	}
}

func TestRebalanceBudgetRespected(t *testing.T) {
	// With every edge on partition 0, each examined edge has a less loaded
	// destination, so the budget is spent exactly.
	g := gen.RMAT(9, 8, 8)
	l := seed(t, g, allOn(4, g, 0))
	if moved, err := l.Rebalance(10); err != nil || moved != 10 {
		t.Errorf("budget 10 moved %d edges (err %v)", moved, err)
	}
}

func TestQuickRandomOpSequenceKeepsInvariants(t *testing.T) {
	f := func(ops []uint16, pRaw uint8) bool {
		p := int(pRaw%7) + 2
		l, err := live.Open(t.TempDir(), live.Config{NumParts: p, Seed: 1})
		if err != nil {
			return false
		}
		defer l.Close()
		present := make(map[graph.Edge]bool)
		for _, op := range ops {
			u := graph.Vertex(op % 23)
			v := graph.Vertex((op / 23) % 23)
			e := graph.Edge{U: u, V: v}.Canon()
			ev := dynpart.Event{Op: dynpart.Add, Edge: e}
			want := u != v && !present[e]
			if op%3 == 0 {
				ev.Op = dynpart.Remove
				want = present[e]
			}
			n, err := l.Apply([]dynpart.Event{ev})
			if err != nil || (n == 1) != want {
				return false
			}
			if want {
				present[e] = ev.Op == dynpart.Add
			}
		}
		n := 0
		for _, ok := range present {
			if ok {
				n++
			}
		}
		if int64(n) != l.Stats().NumEdges {
			return false
		}
		return l.State().CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
