package bench

import (
	"context"
	"testing"

	"github.com/distributedne/dne/internal/datasets"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/methods"
	_ "github.com/distributedne/dne/internal/methods/all"
	"github.com/distributedne/dne/internal/partition"
)

func smallGraph(t testing.TB) *graph.Graph {
	t.Helper()
	return datasets.Skewed[0].Build(-4) // Pokec stand-in at 2^10 vertices
}

func TestEveryPartitionerProducesValidPartitioning(t *testing.T) {
	g := smallGraph(t)
	for _, name := range methods.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			run := Execute(context.Background(), name, g, partition.NewSpec(8, 1))
			if run.Err != nil {
				t.Fatal(run.Err)
			}
			if run.Quality.ReplicationFactor < 1.0 {
				t.Errorf("RF %.3f < 1", run.Quality.ReplicationFactor)
			}
		})
	}
}

func TestQualityOrderingMatchesPaper(t *testing.T) {
	// The paper's central quality claims (Fig. 8, Table 4) on skewed graphs:
	// NE <= DNE < hash-based; Random is the worst of the hash family.
	g := smallGraph(t)
	rf := func(name string) float64 {
		run := Execute(context.Background(), name, g, partition.NewSpec(8, 1))
		if run.Err != nil {
			t.Fatalf("%s: %v", name, run.Err)
		}
		return run.Quality.ReplicationFactor
	}
	random := rf("random")
	grid := rf("grid")
	dneRF := rf("dne")
	neRF := rf("ne")
	if dneRF >= grid {
		t.Errorf("DNE RF %.3f should beat Grid %.3f", dneRF, grid)
	}
	if dneRF >= random {
		t.Errorf("DNE RF %.3f should beat Random %.3f", dneRF, random)
	}
	if neRF > dneRF*1.25 {
		t.Errorf("sequential NE RF %.3f should be <= ~DNE RF %.3f", neRF, dneRF)
	}
}

func TestExecuteReportsMetrics(t *testing.T) {
	g := smallGraph(t)
	run := Execute(context.Background(), "dne", g, partition.NewSpec(4, 1))
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	if run.Elapsed <= 0 {
		t.Error("no elapsed time recorded")
	}
	if run.Quality.ReplicationFactor < 1 {
		t.Error("missing quality metrics")
	}
	if run.MemBytes <= 0 {
		t.Error("DNE should report an analytic memory footprint")
	}
	if run.Stats.Iterations <= 0 || run.Stats.CommBytes <= 0 {
		t.Errorf("DNE stats not folded into Run: %+v", run.Stats)
	}
	if len(run.Stats.Phases) == 0 {
		t.Error("no phase timings recorded")
	}
}

func TestExecuteHonorsCancelledContext(t *testing.T) {
	g := smallGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run := Execute(ctx, "hdrf", g, partition.NewSpec(4, 1))
	if run.Err == nil {
		t.Fatal("cancelled context did not abort the run")
	}
}
