package streampart

import (
	"testing"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/hashpart"
)

func TestFennelProducesValidPartitioning(t *testing.T) {
	g := gen.RMAT(10, 8, 3)
	for _, p := range []int{2, 8, 33} {
		shuffledRun(t, Fennel{Gamma: 1.5}.Stream, g, p, 1)
	}
}

func TestFennelBeatsRandomOnSkewedGraph(t *testing.T) {
	// FENNEL's whole point is to beat hashing on quality while staying
	// streaming; on a skewed graph its RF must be clearly below Random's.
	g := gen.RMAT(12, 16, 5)
	const p = 16
	fq := shuffledRun(t, Fennel{Gamma: 1.5}.Stream, g, p, 2).Measure(g)
	rq := shuffledRun(t, hashpart.Random{Seed: 2}.Stream, g, p, 2).Measure(g)
	if fq.ReplicationFactor >= rq.ReplicationFactor*0.9 {
		t.Errorf("FENNEL RF %.3f not clearly below Random RF %.3f",
			fq.ReplicationFactor, rq.ReplicationFactor)
	}
}

func TestFennelBalanceStaysBounded(t *testing.T) {
	// The convex load cost must keep edge balance within a small factor even
	// though FENNEL has no hard cap.
	g := gen.RMAT(11, 16, 7)
	q := shuffledRun(t, Fennel{Gamma: 1.5}.Stream, g, 32, 3).Measure(g)
	if q.EdgeBalance > 1.6 {
		t.Errorf("edge balance %.3f too loose", q.EdgeBalance)
	}
}

func TestFennelGammaExtremes(t *testing.T) {
	// Larger γ penalizes imbalance harder: balance at γ=4 must be at least
	// as good as at γ=1.05, and both must remain valid partitionings.
	g := gen.RMAT(10, 8, 9)
	lb := shuffledRun(t, Fennel{Gamma: 1.05}.Stream, g, 8, 4).Measure(g).EdgeBalance
	tb := shuffledRun(t, Fennel{Gamma: 4}.Stream, g, 8, 4).Measure(g).EdgeBalance
	if tb > lb+0.05 {
		t.Errorf("γ=4 balance %.3f worse than γ=1.05 balance %.3f", tb, lb)
	}
}

func TestFennelDeterministicForSeed(t *testing.T) {
	g := gen.RMAT(9, 8, 1)
	a := shuffledRun(t, Fennel{Gamma: 1.5}.Stream, g, 8, 42)
	b := shuffledRun(t, Fennel{Gamma: 1.5}.Stream, g, 8, 42)
	for i := range a.Owner {
		if a.Owner[i] != b.Owner[i] {
			t.Fatalf("edge %d: %d != %d", i, a.Owner[i], b.Owner[i])
		}
	}
}
