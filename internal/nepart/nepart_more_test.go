package nepart

import (
	"context"
	"testing"

	"github.com/distributedne/dne/internal/bound"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/streampart"
)

// graphT lets the bound test range over named graphs.
type graphT struct{ g *graph.Graph }

func TestNEBalanceWithinAlpha(t *testing.T) {
	g := gen.RMAT(11, 16, 5)
	for _, alpha := range []float64{1.05, 1.1, 1.5} {
		pt, err := NE{Seed: 1, Alpha: alpha}.PartitionCtx(context.Background(), g, 16)
		if err != nil {
			t.Fatal(err)
		}
		q := pt.Measure(g)
		// Eq. (2)'s real constraint is on the max: |Ep| < α|E|/P, with one
		// expansion step able to overshoot by the selected vertex's
		// residual degree.
		cap := int64(alpha*float64(g.NumEdges())/16) + g.MaxDegree()
		if q.MaxPartEdges > cap {
			t.Errorf("alpha=%.2f: max part %d exceeds cap %d", alpha, q.MaxPartEdges, cap)
		}
	}
}

func TestNEBeatsHDRFOnSkewedGraph(t *testing.T) {
	// Table 4's quality ordering: offline NE < streaming HDRF in RF.
	g := gen.RMAT(11, 16, 9)
	const p = 16
	ne, err := NE{Seed: 2}.PartitionCtx(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	hdrf := shuffledRun(t, streampart.HDRF{}.Stream, g, p, 2)
	neRF := ne.Measure(g).ReplicationFactor
	hdrfRF := hdrf.Measure(g).ReplicationFactor
	if neRF >= hdrfRF {
		t.Errorf("NE RF %.3f not below HDRF RF %.3f", neRF, hdrfRF)
	}
}

func TestNEWithinTheorem1StyleBound(t *testing.T) {
	// Zhang et al. prove a sequential-expansion bound of the same form as
	// the paper's Theorem 1; the implementation must stay under the
	// (|E|+|V|+|P|)/|V| form on several families.
	for name, g := range map[string]*graphT{
		"rmat": {gen.RMAT(9, 8, 1)},
		"road": {gen.Road(20, 20, 1)},
		"star": {gen.Star(1 << 8)},
	} {
		pt, err := NE{Seed: 1}.PartitionCtx(context.Background(), g.g, 8)
		if err != nil {
			t.Fatal(err)
		}
		rf := pt.Measure(g.g).ReplicationFactor
		ub := bound.Theorem1(g.g.NumEdges(), int64(g.g.NumVertices()), 8)
		if rf > ub {
			t.Errorf("%s: NE RF %.3f exceeds bound %.3f", name, rf, ub)
		}
	}
}

func TestNEDeterministic(t *testing.T) {
	g := gen.RMAT(9, 8, 3)
	a, _ := NE{Seed: 7}.PartitionCtx(context.Background(), g, 8)
	b, _ := NE{Seed: 7}.PartitionCtx(context.Background(), g, 8)
	for i := range a.Owner {
		if a.Owner[i] != b.Owner[i] {
			t.Fatalf("owners differ at %d", i)
		}
	}
}
