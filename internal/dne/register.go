package dne

import (
	"github.com/distributedne/dne/internal/methods"
	"github.com/distributedne/dne/internal/partition"
)

func init() {
	methods.Register(methods.Descriptor{
		Name:    "dne",
		Aliases: []string{"d.ne", "distributedne"},
		Summary: "Distributed Neighbor Expansion (Hanai et al., VLDB'19): parallel greedy expansion on an in-process message-passing cluster",
		Params: []methods.ParamSpec{
			{Name: "alpha", Kind: methods.Float, Default: 1.1, Doc: "imbalance factor α ≥ 1 of Eq. (2)", Min: 1, Max: 16, HasBounds: true},
			{Name: "lambda", Kind: methods.Float, Default: 0.1, Doc: "multi-expansion factor λ ∈ (0,1] (§5)", Min: 1e-6, Max: 1, HasBounds: true},
			{Name: "single_expansion", Kind: methods.Bool, Default: false, Doc: "expand one boundary vertex per iteration (Theorem-1 setting, §6)"},
			{Name: "max_iterations", Kind: methods.Int, Default: 0, Doc: "superstep cap (0 = large default)", Min: 0, Max: 1 << 20, HasBounds: true},
		},
		Factory: func() partition.Partitioner { return Partitioner{} },
	})
}
