package dne

import (
	"context"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/methods"
	"github.com/distributedne/dne/internal/partition"
)

func init() {
	def := DefaultConfig()
	methods.Register(methods.Descriptor{
		Name:    "dne",
		Aliases: []string{"d.ne", "distributedne"},
		Summary: "Distributed Neighbor Expansion (Hanai et al., VLDB'19): parallel greedy expansion on an in-process message-passing cluster",
		Params: []methods.ParamSpec{
			{Name: "alpha", Kind: methods.Float, Default: def.Alpha, Doc: "imbalance factor α ≥ 1 of Eq. (2)", Min: 1, Max: 16, HasBounds: true},
			{Name: "lambda", Kind: methods.Float, Default: def.Lambda, Doc: "multi-expansion factor λ ∈ (0,1] (§5)", Min: 1e-6, Max: 1, HasBounds: true},
			{Name: "single_expansion", Kind: methods.Bool, Default: def.SingleExpansion, Doc: "expand one boundary vertex per iteration (Theorem-1 setting, §6)"},
			{Name: "max_iterations", Kind: methods.Int, Default: def.MaxIterations, Doc: "superstep cap (0 = large default)", Min: 0, Max: 1 << 20, HasBounds: true},
		},
		Factory: func() partition.Partitioner {
			return partition.Method{ID: "dne", Label: "D.NE", Core: methodCore}
		},
	})
}

// methodCore runs PartitionCtx under the registry and folds the run's metrics
// into st: iteration count, communication volume, the analytic peak memory
// (the Fig. 9 MemScore numerator) and, in Extra, the selection counters and
// the simulated network time under the paper's InfiniBand cost model.
func methodCore(ctx context.Context, g *graph.Graph, spec partition.Spec, st *partition.Stats) (*partition.Partitioning, error) {
	res, err := PartitionCtx(ctx, g, spec.NumParts, Config{
		Alpha:           spec.Float("alpha"),
		Lambda:          spec.Float("lambda"),
		SingleExpansion: spec.Bool("single_expansion"),
		Seed:            spec.Seed,
		MaxIterations:   spec.Int("max_iterations"),
	})
	if err != nil {
		return nil, err
	}
	st.PeakMemBytes = res.MemBytes
	st.Iterations = res.Iterations
	st.CommBytes = res.CommBytes
	st.CommMessages = res.CommMessages
	st.SweptEdges = res.SweptEdges
	st.SetExtra("wasted_selections", float64(res.WastedSelections))
	st.SetExtra("total_selections", float64(res.TotalSelections))
	st.SetExtra("simulated_network_ms",
		float64(res.SimulatedNetworkTime(cluster.InfiniBandEDR(), spec.NumParts).Microseconds())/1000)
	return res.Partitioning, nil
}
