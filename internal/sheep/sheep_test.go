package sheep

import (
	"context"
	"testing"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/hashpart"
	"github.com/distributedne/dne/internal/partition"
)

// randomRF is the replication factor of the 1D-hash baseline on g, run
// through its Stream core over g's canonical edges.
func randomRF(t *testing.T, g *graph.Graph, parts int) float64 {
	t.Helper()
	pt, err := hashpart.Random{Seed: 1}.Stream(context.Background(), graph.SourceOf(g), parts, &partition.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	return pt.Measure(g).ReplicationFactor
}

func TestValidOnSkewedGraph(t *testing.T) {
	g := gen.RMAT(11, 8, 4)
	for _, parts := range []int{2, 8, 64} {
		pt, err := Sheep{Seed: 1}.PartitionCtx(context.Background(), g, parts)
		if err != nil {
			t.Fatalf("P=%d: %v", parts, err)
		}
		if err := pt.Validate(g); err != nil {
			t.Fatalf("P=%d: %v", parts, err)
		}
	}
}

func TestRoadNetworkQuality(t *testing.T) {
	// The paper's Table 6 story: Sheep is near-ideal on road networks
	// (RF 1.03) where hash methods are ~3.5. Our reproduction stays
	// well under 1.6 at 64 partitions.
	g := gen.Road(120, 120, 5)
	pt, err := Sheep{Seed: 1}.PartitionCtx(context.Background(), g, 64)
	if err != nil {
		t.Fatal(err)
	}
	rf := pt.Measure(g).ReplicationFactor
	if rf > 1.6 {
		t.Errorf("Sheep RF on road network = %.3f, want < 1.6", rf)
	}
	if hrf := randomRF(t, g, 64); rf >= hrf {
		t.Errorf("Sheep RF %.3f should beat Random %.3f", rf, hrf)
	}
}

func TestBalance(t *testing.T) {
	g := gen.RMAT(11, 8, 7)
	const parts = 8
	pt, err := Sheep{Seed: 1}.PartitionCtx(context.Background(), g, parts)
	if err != nil {
		t.Fatal(err)
	}
	q := pt.Measure(g)
	if q.EdgeBalance > 1.3 {
		t.Errorf("edge balance %.3f exceeds slack", q.EdgeBalance)
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	tiny := graph.FromEdges(0, []graph.Edge{{U: 0, V: 1}})
	pt, err := Sheep{}.PartitionCtx(context.Background(), tiny, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Validate(tiny); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministic(t *testing.T) {
	g := gen.RMAT(10, 4, 2)
	a, _ := Sheep{Seed: 3}.PartitionCtx(context.Background(), g, 8)
	b, _ := Sheep{Seed: 3}.PartitionCtx(context.Background(), g, 8)
	for i := range a.Owner {
		if a.Owner[i] != b.Owner[i] {
			t.Fatal("Sheep not deterministic")
		}
	}
}
