package nepart

import (
	"context"
	"testing"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/hashpart"
	"github.com/distributedne/dne/internal/partition"
)

func testGraph() *graph.Graph { return gen.RMAT(11, 8, 4) }

// shuffledRun runs a streaming baseline's Stream core over g's canonical
// edges in the arrival order the registry gives it for spec seed seed.
func shuffledRun(t *testing.T, core func(context.Context, graph.Source, int, *partition.Stats) (*partition.Partitioning, error),
	g *graph.Graph, parts int, seed int64) *partition.Partitioning {
	t.Helper()
	pt, err := core(context.Background(), graph.Shuffled(graph.SourceOf(g), seed), parts, &partition.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestValidComplete(t *testing.T) {
	g := testGraph()
	for _, parts := range []int{1, 2, 8, 64} {
		pt, err := NE{Seed: 1}.PartitionCtx(context.Background(), g, parts)
		if err != nil {
			t.Fatalf("P=%d: %v", parts, err)
		}
		if err := pt.Validate(g); err != nil {
			t.Fatalf("P=%d: %v", parts, err)
		}
	}
}

func TestBestInClassQuality(t *testing.T) {
	// NE is the paper's quality gold standard (Table 4): it should clearly
	// beat hash-based and greedy streaming methods.
	g := testGraph()
	pt, err := NE{Seed: 1}.PartitionCtx(context.Background(), g, 16)
	if err != nil {
		t.Fatal(err)
	}
	ne := pt.Measure(g).ReplicationFactor
	ob := shuffledRun(t, hashpart.Oblivious{}.Stream, g, 16, 1)
	if obRF := ob.Measure(g).ReplicationFactor; ne >= obRF {
		t.Errorf("NE RF %.3f should beat Oblivious %.3f", ne, obRF)
	}
}

func TestBalanceRespectsAlpha(t *testing.T) {
	g := testGraph()
	const parts = 8
	pt, err := NE{Seed: 1, Alpha: 1.1}.PartitionCtx(context.Background(), g, parts)
	if err != nil {
		t.Fatal(err)
	}
	cap := int64(1.1*float64(g.NumEdges())/parts) + g.MaxDegree()
	for q, c := range pt.EdgeCounts() {
		if q == parts-1 {
			continue // last partition absorbs the remainder by design
		}
		if c > cap {
			t.Errorf("partition %d: %d edges over cap %d", q, c, cap)
		}
	}
}

func TestAlphaValidation(t *testing.T) {
	g := testGraph()
	if _, err := (NE{Alpha: 0.5}).PartitionCtx(context.Background(), g, 4); err == nil {
		t.Error("alpha < 1 must be rejected")
	}
}

func TestDeterministic(t *testing.T) {
	g := testGraph()
	a, _ := NE{Seed: 9}.PartitionCtx(context.Background(), g, 8)
	b, _ := NE{Seed: 9}.PartitionCtx(context.Background(), g, 8)
	for i := range a.Owner {
		if a.Owner[i] != b.Owner[i] {
			t.Fatal("NE not deterministic for fixed seed")
		}
	}
}

func TestDisconnectedGraph(t *testing.T) {
	// Two disjoint triangles: expansion must reseed across components.
	g := graph.FromEdges(0, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
	})
	pt, err := NE{Seed: 2}.PartitionCtx(context.Background(), g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Validate(g); err != nil {
		t.Fatal(err)
	}
}
