package streampart

import (
	"context"

	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/methods"
	"github.com/distributedne/dne/internal/partition"
)

func init() {
	methods.Register(methods.Descriptor{
		Name:    "hdrf",
		Summary: "High-Degree Replicated First streaming edge partitioning (Petroni et al., CIKM'15)",
		Params: []methods.ParamSpec{
			{Name: "lambda", Kind: methods.Float, Default: 1.0, Doc: "balance weight λ of the C_bal term (0 = replication only)", Min: 0, Max: 1024, HasBounds: true},
		},
		Factory: func() partition.Partitioner {
			return partition.StreamMethod{ID: "hdrf", Label: "HDRF", Shuffle: true, Core: func(ctx context.Context, src graph.Source, spec partition.Spec, st *partition.Stats) (*partition.Partitioning, error) {
				return HDRF{Lambda: spec.Float("lambda")}.Stream(ctx, src, spec.NumParts, st)
			}}
		},
	})
	methods.Register(methods.Descriptor{
		Name:    "sne",
		Summary: "streaming neighbor expansion: windowed closure sweeps with persistent replica sets (Zhang et al., KDD'17 §5)",
		Params: []methods.ParamSpec{
			{Name: "alpha", Kind: methods.Float, Default: 1.1, Doc: "imbalance factor α ≥ 1", Min: 1, Max: 16, HasBounds: true},
			{Name: "windows", Kind: methods.Int, Default: 0, Doc: "stream window count (0 = partition count)", Min: 0, Max: 1 << 30, HasBounds: true},
		},
		Factory: func() partition.Partitioner {
			return partition.StreamMethod{ID: "sne", Label: "SNE", Shuffle: true, Core: func(ctx context.Context, src graph.Source, spec partition.Spec, st *partition.Stats) (*partition.Partitioning, error) {
				return SNE{Alpha: spec.Float("alpha"), Windows: spec.Int("windows")}.Stream(ctx, src, spec.NumParts, st)
			}}
		},
	})
	methods.Register(methods.Descriptor{
		Name:    "fennel",
		Summary: "FENNEL-style streaming edge partitioning with a convex load cost (Tsourakakis et al., WSDM'14)",
		Params: []methods.ParamSpec{
			{Name: "gamma", Kind: methods.Float, Default: 1.5, Doc: "load-cost exponent γ > 1", Min: 1.000001, Max: 16, HasBounds: true},
		},
		Factory: func() partition.Partitioner {
			return partition.StreamMethod{ID: "fennel", Label: "FENNEL", Shuffle: true, Core: func(ctx context.Context, src graph.Source, spec partition.Spec, st *partition.Stats) (*partition.Partitioning, error) {
				return Fennel{Gamma: spec.Float("gamma")}.Stream(ctx, src, spec.NumParts, st)
			}}
		},
	})
}
