package hashpart

import (
	"context"
	"testing"
	"testing/quick"

	"github.com/distributedne/dne/internal/bitset"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/methods"
	"github.com/distributedne/dne/internal/partition"
)

func testGraph() *graph.Graph { return gen.RMAT(11, 8, 5) }

// registered partitions g with the stream method registered as name. The
// spec seed salts the hash rules and orders the stream of the greedy rule,
// exactly as for every caller outside this package.
func registered(t *testing.T, name string, g *graph.Graph, parts int, seed int64) *partition.Partitioning {
	t.Helper()
	p, spec, err := methods.New(name, partition.Spec{NumParts: parts, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Partition(context.Background(), g, spec)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res.Partitioning
}

func validate(t *testing.T, name string, parts int) partition.Quality {
	t.Helper()
	g := testGraph()
	pt := registered(t, name, g, parts, 1)
	if err := pt.Validate(g); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return pt.Measure(g)
}

func TestRandomBalance(t *testing.T) {
	q := validate(t, "random", 16)
	// Hash partitioning balances edges nearly perfectly (paper Table 5:
	// EB = 1.0).
	if q.EdgeBalance > 1.1 {
		t.Errorf("Random edge balance %.3f, want ~1.0", q.EdgeBalance)
	}
}

func TestGridConfinesVertexReplicas(t *testing.T) {
	g := testGraph()
	const parts = 16 // 4×4 grid
	pt := registered(t, "grid", g, parts, 1)
	// Row+column of a 4×4 grid = at most 7 distinct partitions per vertex.
	perVertex := make(map[graph.Vertex]map[int32]bool)
	for i, e := range g.Edges() {
		for _, v := range [2]graph.Vertex{e.U, e.V} {
			if perVertex[v] == nil {
				perVertex[v] = map[int32]bool{}
			}
			perVertex[v][pt.Owner[i]] = true
		}
	}
	for v, s := range perVertex {
		if len(s) > 7 {
			t.Fatalf("vertex %d replicated on %d partitions, grid bound is 7", v, len(s))
		}
	}
}

func TestGridBeatsRandom(t *testing.T) {
	qr := validate(t, "random", 64)
	qg := validate(t, "grid", 64)
	if qg.ReplicationFactor >= qr.ReplicationFactor {
		t.Errorf("Grid RF %.3f should beat Random RF %.3f", qg.ReplicationFactor, qr.ReplicationFactor)
	}
}

func TestDBHBeatsRandom(t *testing.T) {
	qr := validate(t, "random", 64)
	qd := validate(t, "dbh", 64)
	if qd.ReplicationFactor >= qr.ReplicationFactor {
		t.Errorf("DBH RF %.3f should beat Random RF %.3f", qd.ReplicationFactor, qr.ReplicationFactor)
	}
}

func TestObliviousBeatsPlainHash(t *testing.T) {
	qr := validate(t, "random", 16)
	qo := validate(t, "oblivious", 16)
	if qo.ReplicationFactor >= qr.ReplicationFactor {
		t.Errorf("Oblivious RF %.3f should beat Random RF %.3f", qo.ReplicationFactor, qr.ReplicationFactor)
	}
}

func TestHybridGingerImprovesHybrid(t *testing.T) {
	qh := validate(t, "hybrid", 16)
	g := testGraph()
	pt, err := HybridGinger{Threshold: 100, Passes: 5, Seed: 1}.PartitionCtx(context.Background(), g, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Validate(g); err != nil {
		t.Fatal(err)
	}
	qg := pt.Measure(g)
	if qg.ReplicationFactor > qh.ReplicationFactor*1.05 {
		t.Errorf("HybridGinger RF %.3f should not regress Hybrid RF %.3f",
			qg.ReplicationFactor, qh.ReplicationFactor)
	}
}

func TestDeterminism(t *testing.T) {
	g := testGraph()
	ginger := func() *partition.Partitioning {
		pt, err := HybridGinger{Threshold: 100, Passes: 5, Seed: 3}.PartitionCtx(context.Background(), g, 8)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	same := func(name string, a, b *partition.Partitioning) {
		for i := range a.Owner {
			if a.Owner[i] != b.Owner[i] {
				t.Fatalf("%s not deterministic at edge %d", name, i)
			}
		}
	}
	for _, name := range []string{"random", "grid", "dbh", "hybrid", "oblivious"} {
		same(name, registered(t, name, g, 8, 3), registered(t, name, g, 8, 3))
	}
	same("ginger", ginger(), ginger())
}

func TestQuickOwnersInRange(t *testing.T) {
	g := gen.RMAT(8, 4, 2)
	f := func(seed uint64, partsRaw uint8) bool {
		parts := int(partsRaw%16) + 1
		return registered(t, "random", g, parts, int64(seed)).Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGreedyPlaceRules(t *testing.T) {
	sizes := []int64{5, 1, 3}
	mk := func(bits ...int) bitset.Set {
		s := bitset.New(3)
		for _, b := range bits {
			s.Set(b)
		}
		return s
	}
	// Rule 1: intersection wins even when another partition is lighter.
	if q := greedyPlace(mk(0, 2), mk(2), sizes, bitset.New(3)); q != 2 {
		t.Errorf("rule 1: got %d, want 2", q)
	}
	// Rule 2: disjoint, both non-empty → least loaded of the union.
	if q := greedyPlace(mk(0), mk(1), sizes, bitset.New(3)); q != 1 {
		t.Errorf("rule 2: got %d, want 1", q)
	}
	// Rule 3: one empty → least loaded of the other.
	if q := greedyPlace(mk(0, 2), mk(), sizes, bitset.New(3)); q != 2 {
		t.Errorf("rule 3: got %d, want 2", q)
	}
	// Rule 4: both empty → least loaded overall.
	if q := greedyPlace(mk(), mk(), sizes, bitset.New(3)); q != 1 {
		t.Errorf("rule 4: got %d, want 1", q)
	}
}
