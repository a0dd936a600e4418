package nepart

import (
	"context"

	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/methods"
	"github.com/distributedne/dne/internal/partition"
)

func init() {
	methods.Register(methods.Descriptor{
		Name:    "ne",
		Summary: "sequential neighbor expansion, the quality gold standard (Zhang et al., KDD'17)",
		Params: []methods.ParamSpec{
			{Name: "alpha", Kind: methods.Float, Default: 1.1, Doc: "imbalance factor α ≥ 1", Min: 1, Max: 16, HasBounds: true},
		},
		Factory: func() partition.Partitioner {
			return partition.Method{ID: "ne", Label: "NE", Core: func(ctx context.Context, g *graph.Graph, spec partition.Spec, _ *partition.Stats) (*partition.Partitioning, error) {
				return NE{Alpha: spec.Float("alpha"), Seed: spec.Seed}.PartitionCtx(ctx, g, spec.NumParts)
			}}
		},
	})
}
