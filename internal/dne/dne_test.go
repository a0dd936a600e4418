package dne

import (
	"context"
	"testing"

	"github.com/distributedne/dne/internal/bound"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

// runDNE runs PartitionCtx with no deadline.
func runDNE(g *graph.Graph, numParts int, cfg Config) (*Result, error) {
	return PartitionCtx(context.Background(), g, numParts, cfg)
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return gen.RMAT(10, 8, 42) // 1024 vertices, ~8k edge samples
}

func TestPartitionCoversAllEdges(t *testing.T) {
	g := testGraph(t)
	for _, p := range []int{1, 2, 4, 7, 16} {
		res, err := runDNE(g, p, DefaultConfig())
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if err := res.Partitioning.Validate(g); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
	}
}

func TestBalanceWithinAlpha(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	res, err := runDNE(g, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := res.Partitioning.EdgeCounts()
	// The cap is enforced per edge with a 1/P share per machine and
	// superstep, so a partition passes it by at most one edge per machine.
	cap := int64(cfg.Alpha*float64(g.NumEdges())/8) + 8
	for q, c := range counts {
		if c > cap {
			t.Errorf("partition %d has %d edges, cap %d", q, c, cap)
		}
	}
}

func TestTheorem1UpperBoundHolds(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	cfg.SingleExpansion = true
	for _, p := range []int{2, 4, 8} {
		res, err := runDNE(g, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		q := res.Partitioning.Measure(g)
		ub := bound.Theorem1(g.NumEdges(), int64(g.NumVertices()), p)
		if q.ReplicationFactor > ub {
			t.Errorf("P=%d: RF %.3f exceeds Theorem-1 bound %.3f", p, q.ReplicationFactor, ub)
		}
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	cfg.Seed = 7
	a, err := runDNE(g, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runDNE(g, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Partitioning.Owner {
		if a.Partitioning.Owner[i] != b.Partitioning.Owner[i] {
			t.Fatalf("owner mismatch at edge %d: %d vs %d", i,
				a.Partitioning.Owner[i], b.Partitioning.Owner[i])
		}
	}
}

func TestQualityBeatsRandomHash(t *testing.T) {
	g := testGraph(t)
	res, err := runDNE(g, 8, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := res.Partitioning.Measure(g)
	// Random 1D hash on this graph gives RF well above 3; DNE should be
	// clearly better. Use a loose threshold to avoid flakiness.
	if q.ReplicationFactor > 3.0 {
		t.Errorf("DNE RF %.3f unexpectedly high", q.ReplicationFactor)
	}
}

// BenchmarkPartitionCtxP16 is the dne-mem-p16 workload's partitioning step
// without the e2e harness: RMAT 16 at edge factor 16, 16 machines in process,
// seed 42 at the paper's α and λ. Next to the superstep count it reports the
// accounted memory per edge, the Fig. 9 numerator.
func BenchmarkPartitionCtxP16(b *testing.B) {
	g := gen.RMAT(16, 16, 42)
	cfg := DefaultConfig()
	cfg.Seed = 42
	b.ReportAllocs()
	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = PartitionCtx(context.Background(), g, 16, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Iterations), "supersteps")
	b.ReportMetric(res.MemScore(g.NumEdges()), "acct_B/edge")
}
