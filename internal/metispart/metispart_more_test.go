package metispart

import (
	"context"
	"testing"

	"github.com/distributedne/dne/internal/gen"
)

func TestMETISBeatsRandomOnRoad(t *testing.T) {
	// Multilevel partitioning shines on near-planar graphs (the paper's
	// ParMETIS rows in Table 6 are nearly ideal).
	g := gen.Road(60, 60, 3)
	m := &METIS{Seed: 1}
	mpt, err := m.PartitionCtx(context.Background(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	mr := mpt.Measure(g).ReplicationFactor
	rr := randomRF(t, g, 8)
	if mr >= rr*0.5 {
		t.Errorf("METIS RF %.3f not far below Random %.3f", mr, rr)
	}
	if mr > 1.3 {
		t.Errorf("METIS road RF %.3f, paper reports ~1.00", mr)
	}
}

func TestMETISMemoryReporter(t *testing.T) {
	// The coarsening hierarchy replicates the graph per level — the very
	// reason Fig. 9 shows ParMETIS an order of magnitude above DNE. The
	// analytic report must exceed one graph's footprint.
	g := gen.RMAT(10, 8, 3)
	m := &METIS{Seed: 1}
	if _, err := m.PartitionCtx(context.Background(), g, 8); err != nil {
		t.Fatal(err)
	}
	if m.MemBytes() <= g.MemoryFootprint() {
		t.Errorf("MemBytes %d not above one graph copy %d — hierarchy unaccounted",
			m.MemBytes(), g.MemoryFootprint())
	}
}

func TestMETISDoesNotCollapseOnSkewedGraph(t *testing.T) {
	// Regression: without the maxvwgt cap during matching, heavy-edge
	// matching folds a skewed graph's hub neighborhood into one immovable
	// super-vertex and every label ends up identical (RF < 1, EB = P).
	g := gen.RMAT(12, 16, 42)
	const p = 16
	pt, err := (&METIS{Seed: 42}).PartitionCtx(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, c := range pt.EdgeCounts() {
		if c > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < p/2 {
		t.Fatalf("only %d of %d partitions hold edges — coarsening collapsed", nonEmpty, p)
	}
	// The collapse signature was EB exactly P (one part holds everything);
	// skewed hubs keep vertex-partitioning EB high, but not maximal.
	if eb := pt.Measure(g).EdgeBalance; eb > float64(p)*0.9 {
		t.Fatalf("edge balance %.2f ≈ P: one partition holds nearly everything", eb)
	}
}

func TestMETISTinyGraphs(t *testing.T) {
	for _, p := range []int{2, 3} {
		g := gen.Star(8)
		pt, err := (&METIS{Seed: 1}).PartitionCtx(context.Background(), g, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := pt.Validate(g); err != nil {
			t.Fatal(err)
		}
	}
}
