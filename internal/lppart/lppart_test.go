package lppart

import (
	"context"
	"testing"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/hashpart"
	"github.com/distributedne/dne/internal/partition"
)

type graphCore interface {
	PartitionCtx(context.Context, *graph.Graph, int) (*partition.Partitioning, error)
}

func validate(t *testing.T, p graphCore, g *graph.Graph, parts int) partition.Quality {
	t.Helper()
	pt, err := p.PartitionCtx(context.Background(), g, parts)
	if err != nil {
		t.Fatalf("%T: %v", p, err)
	}
	if err := pt.Validate(g); err != nil {
		t.Fatalf("%T: %v", p, err)
	}
	return pt.Measure(g)
}

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

func TestSpinnerValid(t *testing.T) {
	g := gen.RMAT(11, 8, 3)
	validate(t, Spinner{Seed: 1}, g, 8)
}

func TestXtraPuLPValid(t *testing.T) {
	g := gen.RMAT(11, 8, 3)
	validate(t, XtraPuLP{Seed: 1}, g, 8)
}

func TestLPBeatsRandomOnRoads(t *testing.T) {
	// Label propagation finds the community structure of near-planar
	// graphs; both LP methods must clearly beat random hashing there.
	g := gen.Road(80, 80, 4)
	rr := randomRF(t, g, 16)
	qs := validate(t, Spinner{Seed: 1}, g, 16)
	qx := validate(t, XtraPuLP{Seed: 1}, g, 16)
	if qs.ReplicationFactor >= rr {
		t.Errorf("Spinner RF %.3f should beat Random %.3f", qs.ReplicationFactor, rr)
	}
	if qx.ReplicationFactor >= rr {
		t.Errorf("XtraPuLP RF %.3f should beat Random %.3f", qx.ReplicationFactor, rr)
	}
}

func TestVertexToEdgeRespectsLabels(t *testing.T) {
	g := graph.FromEdges(0, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	labels := []int32{0, 0, 1}
	pt := VertexToEdge(g, labels, 2, 1)
	// Edge {0,1}: both endpoints labelled 0 → must be 0. Edge {1,2}: either.
	if pt.Owner[0] != 0 {
		t.Errorf("edge {0,1} assigned %d, want 0", pt.Owner[0])
	}
	if pt.Owner[1] != 0 && pt.Owner[1] != 1 {
		t.Errorf("edge {1,2} assigned %d", pt.Owner[1])
	}
}

func TestLabelsInRange(t *testing.T) {
	g := gen.RMAT(10, 4, 9)
	spinner, err := (Spinner{Seed: 2}).LabelsCtx(context.Background(), g, 5)
	if err != nil {
		t.Fatal(err)
	}
	xp, err := (XtraPuLP{Seed: 2}).LabelsCtx(context.Background(), g, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, labels := range [][]int32{spinner, xp} {
		if len(labels) != int(g.NumVertices()) {
			t.Fatal("label vector wrong length")
		}
		for v, l := range labels {
			if l < 0 || l >= 5 {
				t.Fatalf("vertex %d has out-of-range label %d", v, l)
			}
		}
	}
}

func TestXtraPuLPSeedsCoverDisconnected(t *testing.T) {
	// Disconnected graph: BFS seeds can't reach everything; stragglers must
	// still get valid labels.
	g := graph.FromEdges(0, []graph.Edge{
		{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}, {U: 6, V: 7},
	})
	validate(t, XtraPuLP{Seed: 1}, g, 4)
}
