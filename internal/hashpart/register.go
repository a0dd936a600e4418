package hashpart

import (
	"context"

	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/methods"
	"github.com/distributedne/dne/internal/partition"
)

func init() {
	methods.Register(methods.Descriptor{
		Name:    "random",
		Aliases: []string{"rand", "1d"},
		Summary: "1D hash: every edge lands on a uniformly random partition",
		Factory: func() partition.Partitioner {
			return partition.StreamMethod{ID: "random", Label: "Rand.", Core: func(ctx context.Context, src graph.Source, spec partition.Spec, st *partition.Stats) (*partition.Partitioning, error) {
				return Random{Seed: uint64(spec.Seed)}.Stream(ctx, src, spec.NumParts, st)
			}}
		},
	})
	methods.Register(methods.Descriptor{
		Name:    "grid",
		Aliases: []string{"2d", "2d-random"},
		Summary: "2D hash: edges land on an R×C grid cell, bounding replication by R+C−1",
		Factory: func() partition.Partitioner {
			return partition.StreamMethod{ID: "grid", Label: "2D-R.", Core: func(ctx context.Context, src graph.Source, spec partition.Spec, st *partition.Stats) (*partition.Partitioning, error) {
				return Grid{Seed: uint64(spec.Seed)}.Stream(ctx, src, spec.NumParts, st)
			}}
		},
	})
	methods.Register(methods.Descriptor{
		Name:    "dbh",
		Summary: "degree-based hashing: edges hash by their lower-degree endpoint (Xie et al., NIPS'14)",
		Factory: func() partition.Partitioner {
			return partition.StreamMethod{ID: "dbh", Label: "DBH", Core: func(ctx context.Context, src graph.Source, spec partition.Spec, st *partition.Stats) (*partition.Partitioning, error) {
				return DBH{Seed: uint64(spec.Seed)}.Stream(ctx, src, spec.NumParts, st)
			}}
		},
	})
	methods.Register(methods.Descriptor{
		Name:    "hybrid",
		Summary: "PowerLyra hybrid-cut: low-degree destinations group their edges, high-degree fall back to source hash",
		Params: []methods.ParamSpec{
			{Name: "threshold", Kind: methods.Int, Default: 100, Doc: "degree boundary θ between low- and high-degree handling", Min: 1, Max: 1 << 30, HasBounds: true},
		},
		Factory: func() partition.Partitioner {
			return partition.StreamMethod{ID: "hybrid", Label: "Hybrid", Core: func(ctx context.Context, src graph.Source, spec partition.Spec, st *partition.Stats) (*partition.Partitioning, error) {
				return Hybrid{Seed: uint64(spec.Seed), Threshold: int64(spec.Int("threshold"))}.Stream(ctx, src, spec.NumParts, st)
			}}
		},
	})
	methods.Register(methods.Descriptor{
		Name:    "oblivious",
		Aliases: []string{"obli"},
		Summary: "PowerGraph greedy streaming placement over endpoint replica sets (Gonzalez et al., OSDI'12)",
		Factory: func() partition.Partitioner {
			return partition.StreamMethod{ID: "oblivious", Label: "Obli.", Shuffle: true, Core: func(ctx context.Context, src graph.Source, spec partition.Spec, st *partition.Stats) (*partition.Partitioning, error) {
				return Oblivious{}.Stream(ctx, src, spec.NumParts, st)
			}}
		},
	})
	methods.Register(methods.Descriptor{
		Name:    "ginger",
		Aliases: []string{"hybridginger", "h.g."},
		Summary: "PowerLyra hybrid-cut plus Ginger refinement passes (Chen et al., EuroSys'15)",
		Params: []methods.ParamSpec{
			{Name: "threshold", Kind: methods.Int, Default: 100, Doc: "degree boundary θ of the hybrid-cut phase", Min: 1, Max: 1 << 30, HasBounds: true},
			{Name: "passes", Kind: methods.Int, Default: 5, Doc: "Ginger refinement passes", Min: 1, Max: 1 << 20, HasBounds: true},
		},
		Factory: func() partition.Partitioner {
			return partition.Method{ID: "ginger", Label: "H.G.", Core: func(ctx context.Context, g *graph.Graph, spec partition.Spec, _ *partition.Stats) (*partition.Partitioning, error) {
				return HybridGinger{
					Seed:      uint64(spec.Seed),
					Threshold: int64(spec.Int("threshold")),
					Passes:    spec.Int("passes"),
				}.PartitionCtx(ctx, g, spec.NumParts)
			}}
		},
	})
}
