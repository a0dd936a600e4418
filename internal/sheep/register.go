package sheep

import (
	"context"

	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/methods"
	"github.com/distributedne/dne/internal/partition"
)

func init() {
	methods.Register(methods.Descriptor{
		Name:    "sheep",
		Summary: "elimination-tree partitioner: tree construction plus balanced tree partitioning (Margo & Seltzer, VLDB'15)",
		Params: []methods.ParamSpec{
			{Name: "alpha", Kind: methods.Float, Default: 1.1, Doc: "imbalance factor of the tree-partitioning phase", Min: 1, Max: 16, HasBounds: true},
		},
		Factory: func() partition.Partitioner {
			return partition.Method{ID: "sheep", Label: "Sheep", Core: func(ctx context.Context, g *graph.Graph, spec partition.Spec, _ *partition.Stats) (*partition.Partitioning, error) {
				return Sheep{Alpha: spec.Float("alpha"), Seed: spec.Seed}.PartitionCtx(ctx, g, spec.NumParts)
			}}
		},
	})
}
