package streampart

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// referenceHDRF is HDRF's assignment pass written the direct way: every
// partition q is scored on every edge, C_bal with one division per q, and
// maxSize/minSize rescanned after each assignment. It is the oracle the
// level/class argmax of HDRF.Stream must reproduce owner for owner.
func referenceHDRF(ctx context.Context, src graph.Source, numParts int, lambda float64) (*partition.Partitioning, error) {
	if lambda == 0 {
		lambda = 1.0
	}
	deg, nv, ne, err := partition.DegreesAndCounts(ctx, src)
	if err != nil {
		return nil, err
	}
	p := partition.New(numParts, ne)
	replicas := partition.NewReplicaSets(numParts, nv)
	sizes := make([]int64, numParts)
	var maxSize, minSize int64
	const eps = 1.0
	err = partition.EachEdge(ctx, src, func(pos int64, k uint64) error {
		u, v := graph.Vertex(k>>32), graph.Vertex(k)
		du, dv := float64(deg[u]), float64(deg[v])
		thetaU := du / (du + dv)
		thetaV := 1 - thetaU
		ru, rv := replicas.Row(u), replicas.Row(v)
		best := int32(0)
		bestScore := -1.0
		for q := 0; q < numParts; q++ {
			var rep float64
			if ru.Has(q) {
				rep += 2 - thetaU
			}
			if rv.Has(q) {
				rep += 2 - thetaV
			}
			bal := lambda * float64(maxSize-sizes[q]) / (eps + float64(maxSize-minSize))
			if s := rep + bal; s > bestScore {
				bestScore = s
				best = int32(q)
			}
		}
		p.Owner[pos] = best
		ru.Set(int(best))
		rv.Set(int(best))
		sizes[best]++
		maxSize, minSize = sizes[0], sizes[0]
		for _, s := range sizes[1:] {
			if s > maxSize {
				maxSize = s
			}
			if s < minSize {
				minSize = s
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// TestHDRFMatchesReference runs HDRF.Stream and the per-q oracle over the
// same shuffled streams and requires identical owners: λ from the registered
// range's top down to values so small that C_bal vanishes against C_rep
// (every level then ties and the argmax must walk), and partition counts
// spanning one, two and three mask words. The time bound on HDRF.Stream's
// own runs (about 0.3 s, 1.7 s under -race) keeps the tie walk honest: it
// must stay O(P) per edge, not grow with the number of levels walked.
func TestHDRFMatchesReference(t *testing.T) {
	var spent time.Duration
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", gen.RMAT(10, 8, 3)},
		{"er", gen.ER(1500, 9000, 5)},
	}
	lambdas := []float64{1, 0.5, 3.7, 1024, 1e-12, 1e-300}
	parts := []int{1, 2, 3, 16, 63, 64, 65, 130}
	ctx := context.Background()
	for gi, gc := range graphs {
		for _, lambda := range lambdas {
			for _, p := range parts {
				seed := int64(gi*1000 + p)
				t.Run(fmt.Sprintf("%s/lambda=%g/P=%d", gc.name, lambda, p), func(t *testing.T) {
					want, err := referenceHDRF(ctx, graph.Shuffled(graph.SourceOf(gc.g), seed), p, lambda)
					if err != nil {
						t.Fatal(err)
					}
					var st partition.Stats
					start := time.Now()
					got, err := HDRF{Lambda: lambda}.Stream(ctx, graph.Shuffled(graph.SourceOf(gc.g), seed), p, &st)
					spent += time.Since(start)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want.Owner {
						if got.Owner[i] != want.Owner[i] {
							t.Fatalf("edge %d: owner %d, reference %d", i, got.Owner[i], want.Owner[i])
						}
					}
				})
			}
		}
	}
	if spent > 5*time.Second {
		t.Errorf("HDRF.Stream took %v over the cases, want under 5s: the tie walk is no longer O(P) per edge", spent)
	}
}

func TestHDRFRejectsBadLambda(t *testing.T) {
	g := gen.RMAT(6, 4, 1)
	for _, lambda := range []float64{-1, math.NaN(), math.Inf(1)} {
		var st partition.Stats
		if _, err := (HDRF{Lambda: lambda}).Stream(context.Background(), graph.SourceOf(g), 4, &st); err == nil {
			t.Errorf("lambda %v accepted", lambda)
		}
	}
}
