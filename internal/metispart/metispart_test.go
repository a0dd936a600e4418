package metispart

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

func TestValid(t *testing.T) {
	g := gen.RMAT(11, 8, 4)
	for _, parts := range []int{2, 8, 32} {
		m := &METIS{RefinePasses: 4, Seed: 1}
		pt, err := m.PartitionCtx(context.Background(), g, parts)
		if err != nil {
			t.Fatalf("P=%d: %v", parts, err)
		}
		if err := pt.Validate(g); err != nil {
			t.Fatalf("P=%d: %v", parts, err)
		}
	}
}

func TestNearIdealOnRoadNetworks(t *testing.T) {
	// ParMETIS achieves RF ≈ 1.00 on road networks (paper Table 6); the
	// multilevel stand-in must stay close and far below random hashing.
	g := gen.Road(100, 100, 3)
	m := &METIS{RefinePasses: 4, Seed: 1}
	pt, err := m.PartitionCtx(context.Background(), g, 16)
	if err != nil {
		t.Fatal(err)
	}
	rf := pt.Measure(g).ReplicationFactor
	if rf > 1.25 {
		t.Errorf("METIS RF on road network = %.3f, want < 1.25", rf)
	}
	if hrf := randomRF(t, g, 16); rf >= hrf {
		t.Errorf("METIS RF %.3f should beat Random %.3f", rf, hrf)
	}
}

func TestMemoryAccountingGrowsWithLevels(t *testing.T) {
	g := gen.RMAT(12, 8, 5)
	m := &METIS{RefinePasses: 4, Seed: 1}
	if _, err := m.PartitionCtx(context.Background(), g, 8); err != nil {
		t.Fatal(err)
	}
	// Multilevel coarsening must account more than the base graph alone —
	// this is exactly the Fig-9 memory penalty.
	base := g.MemoryFootprint()
	if m.MemBytes() <= base/2 {
		t.Errorf("MemBytes %d suspiciously low vs base footprint %d", m.MemBytes(), base)
	}
}

func TestCoarseningTerminatesOnStar(t *testing.T) {
	// Star graphs defeat heavy-edge matching (only the hub can match once);
	// the loop must still terminate.
	g := gen.Star(1 << 12)
	m := &METIS{RefinePasses: 4, Seed: 1}
	pt, err := m.PartitionCtx(context.Background(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestTinyGraph(t *testing.T) {
	g := graph.FromEdges(0, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	m := &METIS{RefinePasses: 4, Seed: 1}
	pt, err := m.PartitionCtx(context.Background(), g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Validate(g); err != nil {
		t.Fatal(err)
	}
}
