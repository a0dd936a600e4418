package streampart

import (
	"context"
	"testing"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/hashpart"
	"github.com/distributedne/dne/internal/partition"
)

func testGraph() *graph.Graph { return gen.RMAT(11, 8, 6) }

// streamCore is the shape of a concrete type's Stream method.
type streamCore func(context.Context, graph.Source, int, *partition.Stats) (*partition.Partitioning, error)

// shuffledRun runs a Stream core over g's canonical edges in the arrival
// order the registry gives it for spec seed seed, and validates the output.
func shuffledRun(t *testing.T, core streamCore, g *graph.Graph, parts int, seed int64) *partition.Partitioning {
	t.Helper()
	pt, err := core(context.Background(), graph.Shuffled(graph.SourceOf(g), seed), parts, &partition.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Validate(g); err != nil {
		t.Fatal(err)
	}
	return pt
}

func run(t *testing.T, core streamCore, parts int) partition.Quality {
	t.Helper()
	g := testGraph()
	return shuffledRun(t, core, g, parts, 1).Measure(g)
}

func TestHDRFValidAndBalanced(t *testing.T) {
	q := run(t, HDRF{Lambda: 1}.Stream, 16)
	if q.EdgeBalance > 1.2 {
		t.Errorf("HDRF edge balance %.3f too loose", q.EdgeBalance)
	}
}

func TestHDRFBeatsRandom(t *testing.T) {
	qh := run(t, HDRF{Lambda: 1}.Stream, 16)
	qr := run(t, hashpart.Random{Seed: 1}.Stream, 16)
	if qh.ReplicationFactor >= qr.ReplicationFactor {
		t.Errorf("HDRF RF %.3f should beat Random %.3f", qh.ReplicationFactor, qr.ReplicationFactor)
	}
}

func TestSNEValidAndCapped(t *testing.T) {
	g := testGraph()
	const parts = 16
	pt := shuffledRun(t, SNE{Alpha: 1.1}.Stream, g, parts, 1)
	capEdges := int64(1.1*float64(g.NumEdges())/parts) + 1
	for q, c := range pt.EdgeCounts() {
		if c > capEdges {
			t.Errorf("partition %d has %d edges, cap %d", q, c, capEdges)
		}
	}
}

func TestSNEComparableToHDRF(t *testing.T) {
	// The paper's SNE clearly beats HDRF (Table 4); the windowed
	// simplification here only matches it (see the package comment), so the
	// invariant tested is "within 5% of HDRF and far better than Random".
	qs := run(t, SNE{Alpha: 1.1}.Stream, 64)
	qh := run(t, HDRF{Lambda: 1}.Stream, 64)
	if qs.ReplicationFactor > qh.ReplicationFactor*1.05 {
		t.Errorf("SNE RF %.3f should track HDRF %.3f within 5%%",
			qs.ReplicationFactor, qh.ReplicationFactor)
	}
	qr := run(t, hashpart.Random{Seed: 1}.Stream, 64)
	if qs.ReplicationFactor >= qr.ReplicationFactor {
		t.Errorf("SNE RF %.3f should beat Random %.3f", qs.ReplicationFactor, qr.ReplicationFactor)
	}
}

func TestSNEWindowsParameter(t *testing.T) {
	g := testGraph()
	for _, w := range []int{1, 4, 1000000} {
		shuffledRun(t, SNE{Alpha: 1.1, Windows: w}.Stream, g, 8, 1)
	}
}

func TestDeterminism(t *testing.T) {
	g := testGraph()
	for _, c := range []struct {
		name string
		core streamCore
	}{{"HDRF", HDRF{Lambda: 1}.Stream}, {"SNE", SNE{Alpha: 1.1}.Stream}} {
		a := shuffledRun(t, c.core, g, 8, 4)
		b := shuffledRun(t, c.core, g, 8, 4)
		for i := range a.Owner {
			if a.Owner[i] != b.Owner[i] {
				t.Fatalf("%s not deterministic", c.name)
			}
		}
	}
}
