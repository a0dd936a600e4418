package metispart

import (
	"context"

	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/methods"
	"github.com/distributedne/dne/internal/partition"
)

func init() {
	methods.Register(methods.Descriptor{
		Name:    "metis",
		Aliases: []string{"parmetis", "p.m."},
		Summary: "multilevel vertex partitioning (coarsen / initial partition / refine), standing in for ParMETIS",
		Params: []methods.ParamSpec{
			{Name: "coarsest_size", Kind: methods.Int, Default: 0, Doc: "stop coarsening at this many vertices (0 = 32·parts)", Min: 0, Max: 1 << 30, HasBounds: true},
			{Name: "refine_passes", Kind: methods.Int, Default: 4, Doc: "refinement passes per level", Min: 0, Max: 1 << 20, HasBounds: true},
		},
		Factory: func() partition.Partitioner {
			return partition.Method{ID: "metis", Label: "ParMETIS", Core: func(ctx context.Context, g *graph.Graph, spec partition.Spec, st *partition.Stats) (*partition.Partitioning, error) {
				m := &METIS{CoarsestSize: spec.Int("coarsest_size"), RefinePasses: spec.Int("refine_passes"), Seed: spec.Seed}
				p, err := m.PartitionCtx(ctx, g, spec.NumParts)
				st.PeakMemBytes = m.MemBytes()
				return p, err
			}}
		},
	})
}
