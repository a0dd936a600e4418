package lppart

import (
	"context"

	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/methods"
	"github.com/distributedne/dne/internal/partition"
)

func init() {
	methods.Register(methods.Descriptor{
		Name:    "spinner",
		Summary: "Spinner label propagation: vertices adopt the most frequent neighbor label under a load penalty (Martella et al.)",
		Params: []methods.ParamSpec{
			{Name: "iterations", Kind: methods.Int, Default: 20, Doc: "label-propagation iterations", Min: 1, Max: 1 << 20, HasBounds: true},
			{Name: "capacity", Kind: methods.Float, Default: 1.05, Doc: "capacity slack c of the load penalty", Min: 1, Max: 16, HasBounds: true},
		},
		Factory: func() partition.Partitioner {
			return partition.Method{ID: "spinner", Label: "Spinner", Core: func(ctx context.Context, g *graph.Graph, spec partition.Spec, _ *partition.Stats) (*partition.Partitioning, error) {
				return Spinner{
					Iterations: spec.Int("iterations"),
					Capacity:   spec.Float("capacity"),
					Seed:       spec.Seed,
				}.PartitionCtx(ctx, g, spec.NumParts)
			}}
		},
	})
	methods.Register(methods.Descriptor{
		Name:    "xtrapulp",
		Aliases: []string{"x.p."},
		Summary: "PuLP-style BFS-seeded vertex partitioning with constrained label-propagation refinement",
		Params: []methods.ParamSpec{
			{Name: "iterations", Kind: methods.Int, Default: 16, Doc: "refinement iterations", Min: 1, Max: 1 << 20, HasBounds: true},
		},
		Factory: func() partition.Partitioner {
			return partition.Method{ID: "xtrapulp", Label: "X.P.", Core: func(ctx context.Context, g *graph.Graph, spec partition.Spec, _ *partition.Stats) (*partition.Partitioning, error) {
				return XtraPuLP{Iterations: spec.Int("iterations"), Seed: spec.Seed}.PartitionCtx(ctx, g, spec.NumParts)
			}}
		},
	})
	methods.Register(methods.Descriptor{
		Name:    "distlp",
		Summary: "distributed Spinner over the in-process message-passing cluster, with vertex-partitioned memory accounting",
		Params: []methods.ParamSpec{
			{Name: "iterations", Kind: methods.Int, Default: 20, Doc: "label-propagation supersteps", Min: 1, Max: 1 << 20, HasBounds: true},
			{Name: "capacity", Kind: methods.Float, Default: 1.05, Doc: "capacity slack c of the load penalty", Min: 1, Max: 16, HasBounds: true},
		},
		Factory: func() partition.Partitioner {
			return partition.Method{ID: "distlp", Label: "DistLP", Core: func(ctx context.Context, g *graph.Graph, spec partition.Spec, st *partition.Stats) (*partition.Partitioning, error) {
				d := &DistLP{Iterations: spec.Int("iterations"), Capacity: spec.Float("capacity"), Seed: spec.Seed}
				p, err := d.PartitionCtx(ctx, g, spec.NumParts)
				if err != nil {
					return nil, err
				}
				st.PeakMemBytes = d.Last.MemBytes
				st.CommBytes = d.Last.CommBytes
				st.CommMessages = d.Last.CommMessages
				st.Iterations = d.Last.Supersteps
				return p, nil
			}}
		},
	})
}
