// Package dnebench holds one benchmark per table and figure of the paper's
// evaluation, plus ablation benches for the design decisions README.md lists
// under "Deviations from Algorithms 1–4". Benchmarks run the same experiment designs as cmd/expbench
// at reduced scale; `go test -bench . -benchmem` regenerates every series.
package dnebench

import (
	"context"
	"fmt"
	"io"
	"testing"

	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/experiments"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/methods"
	"github.com/distributedne/dne/internal/partition"
)

func benchOpts(b *testing.B) experiments.Options {
	b.Helper()
	return experiments.Options{Shift: -2, Seed: 1, PRIters: 5, Quick: true, Out: io.Discard}
}

func runExperiment(b *testing.B, fn func(experiments.Options) error) {
	b.Helper()
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		if err := fn(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6LambdaSweep regenerates Fig. 6 (iterations & RF vs λ).
func BenchmarkFig6LambdaSweep(b *testing.B) { runExperiment(b, experiments.Fig6) }

// BenchmarkTable1Bounds regenerates Table 1 (theoretical upper bounds).
func BenchmarkTable1Bounds(b *testing.B) { runExperiment(b, experiments.Table1) }

// BenchmarkFig8Quality regenerates Fig. 8(a)-(g) (RF of skewed graphs).
func BenchmarkFig8Quality(b *testing.B) { runExperiment(b, experiments.Fig8) }

// BenchmarkFig8RMAT regenerates Fig. 8(h)-(j) (RF of RMAT vs edge factor).
func BenchmarkFig8RMAT(b *testing.B) { runExperiment(b, experiments.Fig8RMAT) }

// BenchmarkFig9Memory regenerates Fig. 9 (memory scores).
func BenchmarkFig9Memory(b *testing.B) { runExperiment(b, experiments.Fig9) }

// BenchmarkFig10Elapsed regenerates Fig. 10(a)-(g) (time vs machines).
func BenchmarkFig10Elapsed(b *testing.B) { runExperiment(b, experiments.Fig10) }

// BenchmarkFig10EdgeFactor regenerates Fig. 10(h) (time vs edge factor).
func BenchmarkFig10EdgeFactor(b *testing.B) { runExperiment(b, experiments.Fig10EF) }

// BenchmarkFig10Scale regenerates Fig. 10(i) (time vs scale).
func BenchmarkFig10Scale(b *testing.B) { runExperiment(b, experiments.Fig10Scale) }

// BenchmarkFig10jWeakScaling regenerates Fig. 10(j) (§7.4 weak scaling
// toward the trillion-edge configuration).
func BenchmarkFig10jWeakScaling(b *testing.B) { runExperiment(b, experiments.Fig10J) }

// BenchmarkTable4Sequential regenerates Table 4 (HDRF/NE/SNE vs D.NE).
func BenchmarkTable4Sequential(b *testing.B) { runExperiment(b, experiments.Table4) }

// BenchmarkTable5Apps regenerates Table 5 (SSSP/WCC/PageRank over
// partitionings).
func BenchmarkTable5Apps(b *testing.B) { runExperiment(b, experiments.Table5) }

// BenchmarkTable6Roads regenerates Table 6 (road networks).
func BenchmarkTable6Roads(b *testing.B) { runExperiment(b, experiments.Table6) }

// BenchmarkDNEPartition1M is Distributed NE on the seeded ~1M-edge RMAT
// (scale 16, edge factor 16) with 16 machines, the in-process counterpart
// of the benchmark's dne-mem-p16 workload. The graph build is excluded; the
// measured region is exactly the partitioning. RF is reported so quality
// regressions show up next to wall-time ones.
func BenchmarkDNEPartition1M(b *testing.B) {
	g := gen.RMAT(16, 16, 42)
	cfg := dne.DefaultConfig()
	cfg.Seed = 42
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dne.PartitionCtx(context.Background(), g, 16, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		b.ReportMetric(res.Partitioning.Measure(g).ReplicationFactor, "RF")
		b.StartTimer()
	}
}

// --- Ablations (README.md, "Deviations from Algorithms 1–4") ---

func ablationGraph() *graph.Graph { return gen.RMAT(13, 16, 9) }

// BenchmarkAblationLambda compares single-expansion (Theorem-1 mode) against
// the paper's λ=0.1 multi-expansion on the same graph: the iteration-count
// gap is the entire point of §5.
func BenchmarkAblationLambda(b *testing.B) {
	g := ablationGraph()
	for _, mode := range []struct {
		name   string
		single bool
	}{{"single", true}, {"lambda0.1", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := dne.DefaultConfig()
			cfg.SingleExpansion = mode.single
			if mode.single {
				// Single expansion on a 2M-edge graph takes ~|E|/P steps;
				// use a smaller instance to keep the bench honest but fast.
				cfg.MaxIterations = 1 << 22
			}
			gg := g
			if mode.single {
				gg = gen.RMAT(10, 8, 9)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := dne.PartitionCtx(context.Background(), gg, 8, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Iterations), "iterations")
			}
		})
	}
}

// BenchmarkAblationPartitionCount shows how DNE's runtime and communication
// scale with the machine count on a fixed graph.
func BenchmarkAblationPartitionCount(b *testing.B) {
	g := ablationGraph()
	for _, p := range []int{4, 16, 64} {
		b.Run(benchName("P", p), func(b *testing.B) {
			cfg := dne.DefaultConfig()
			for i := 0; i < b.N; i++ {
				res, err := dne.PartitionCtx(context.Background(), g, p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.CommBytes)/(1<<20), "comm-MB")
			}
		})
	}
}

// BenchmarkAblationAlpha measures the quality/balance trade as the imbalance
// factor α varies (Eq. 2's constraint tightness).
func BenchmarkAblationAlpha(b *testing.B) {
	g := ablationGraph()
	for _, alpha := range []float64{1.01, 1.1, 1.5} {
		b.Run(benchName("alpha", int(alpha*100)), func(b *testing.B) {
			cfg := dne.DefaultConfig()
			cfg.Alpha = alpha
			for i := 0; i < b.N; i++ {
				res, err := dne.PartitionCtx(context.Background(), g, 16, cfg)
				if err != nil {
					b.Fatal(err)
				}
				q := res.Partitioning.Measure(g)
				b.ReportMetric(q.ReplicationFactor, "RF")
				b.ReportMetric(q.EdgeBalance, "EB")
			}
		})
	}
}

// BenchmarkAblationDrestStaleness reports the fraction of selection
// deliveries that allocate nothing — the grid fan-out of a selection plus the
// price of refreshing boundary Drest scores only on re-entry (README.md,
// "Deviations from Algorithms 1–4", honest boundary) — across λ (staleness
// grows with the batch size).
func BenchmarkAblationDrestStaleness(b *testing.B) {
	g := ablationGraph()
	for _, lambda := range []float64{0.01, 0.1, 1.0} {
		b.Run(fmt.Sprintf("lambda=%g", lambda), func(b *testing.B) {
			cfg := dne.DefaultConfig()
			cfg.Lambda = lambda
			for i := 0; i < b.N; i++ {
				res, err := dne.PartitionCtx(context.Background(), g, 16, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.WastedSelections)/float64(res.TotalSelections), "waste-rate")
			}
		})
	}
}

// --- Streaming baselines (Fig. 8) ---

// BenchmarkFennelVsHDRF compares the two streaming edge partitioners' RF and
// speed on the same skewed graph.
func BenchmarkFennelVsHDRF(b *testing.B) {
	g := gen.RMAT(13, 16, 5)
	for _, name := range []string{"fennel", "hdrf"} {
		b.Run(name, func(b *testing.B) {
			p, spec, err := methods.New(name, partition.Spec{NumParts: 16, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := p.Partition(context.Background(), g, spec)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Quality.ReplicationFactor, "RF")
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return fmt.Sprintf("%s=%d", prefix, v)
}
