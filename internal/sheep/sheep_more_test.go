package sheep

import (
	"context"
	"testing"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

func TestSheepOnTreeIsNearIdeal(t *testing.T) {
	// Sheep's elimination-tree translation is exact on trees: partitioning a
	// balanced binary tree should yield RF close to 1 (few shared
	// separators).
	var edges []graph.Edge
	const n = 1 << 10
	for v := graph.Vertex(1); v < n; v++ {
		edges = append(edges, graph.Edge{U: (v - 1) / 2, V: v})
	}
	g := graph.FromEdges(n, edges)
	pt, err := Sheep{Alpha: 1.1, Seed: 1}.PartitionCtx(context.Background(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Validate(g); err != nil {
		t.Fatal(err)
	}
	rf := pt.Measure(g).ReplicationFactor
	if rf > 1.35 {
		t.Errorf("tree RF %.3f, expected near 1", rf)
	}
}

func TestSheepPathGraph(t *testing.T) {
	var edges []graph.Edge
	for v := graph.Vertex(0); v < 999; v++ {
		edges = append(edges, graph.Edge{U: v, V: v + 1})
	}
	g := graph.FromEdges(1000, edges)
	pt, err := Sheep{Alpha: 1.1, Seed: 1}.PartitionCtx(context.Background(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Validate(g); err != nil {
		t.Fatal(err)
	}
	q := pt.Measure(g)
	// A path cuts at most P−1 vertices between contiguous chunks in the
	// ideal case; elimination ordering won't be perfect but must stay low.
	if q.ReplicationFactor > 1.2 {
		t.Errorf("path RF %.3f", q.ReplicationFactor)
	}
}

func TestSheepBalanceCap(t *testing.T) {
	g := gen.RMAT(10, 8, 3)
	pt, err := Sheep{Seed: 2, Alpha: 1.1}.PartitionCtx(context.Background(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if eb := pt.Measure(g).EdgeBalance; eb > 1.25 {
		t.Errorf("edge balance %.3f", eb)
	}
}

func TestSheepDeterministic(t *testing.T) {
	g := gen.RMAT(9, 8, 5)
	a, _ := Sheep{Alpha: 1.1, Seed: 9}.PartitionCtx(context.Background(), g, 8)
	b, _ := Sheep{Alpha: 1.1, Seed: 9}.PartitionCtx(context.Background(), g, 8)
	for i := range a.Owner {
		if a.Owner[i] != b.Owner[i] {
			t.Fatalf("owners differ at %d", i)
		}
	}
}
