package dne

import (
	"testing"

	"github.com/distributedne/dne/internal/gen"
)

func TestSelectionCountersReported(t *testing.T) {
	g := gen.RMAT(10, 8, 2)
	res, err := runDNE(g, 8, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSelections <= 0 {
		t.Fatal("no selections counted")
	}
	if res.WastedSelections < 0 || res.WastedSelections > res.TotalSelections {
		t.Fatalf("wasted %d outside [0,%d]", res.WastedSelections, res.TotalSelections)
	}
}

func TestWastedSelectionsGrowWithLambda(t *testing.T) {
	// Staleness ablation (README.md, "Deviations from Algorithms 1–4", honest
	// boundary): larger λ batches pop more boundary vertices per superstep
	// against the same stale scores, so the
	// wasted-delivery *rate* must not shrink as λ grows, and λ=1 must waste
	// strictly more deliveries than λ=0.01 in absolute terms per iteration.
	g := gen.RMAT(11, 16, 13)
	rate := func(lambda float64) float64 {
		cfg := DefaultConfig()
		cfg.Lambda = lambda
		res, err := runDNE(g, 8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.WastedSelections) / float64(res.TotalSelections)
	}
	lo, hi := rate(0.01), rate(1.0)
	if hi < lo*0.5 {
		t.Errorf("waste rate at λ=1 (%.4f) unexpectedly far below λ=0.01 (%.4f)", hi, lo)
	}
	t.Logf("stale-Drest waste rate: λ=0.01 %.4f, λ=1.0 %.4f", lo, hi)
}
