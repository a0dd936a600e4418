// Package dne implements Distributed Neighbor Expansion (Distributed NE),
// the parallel and distributed edge-partitioning algorithm of Hanai et al.,
// "Distributed Edge Partitioning for Trillion-edge Graphs", VLDB 2019.
//
// The algorithm computes a |P|-way edge partitioning by growing all |P|
// partitions simultaneously ("parallel expansion", §3): each partition
// greedily expands its edge set from a random seed vertex, always expanding
// the boundary vertex whose remaining degree — and therefore the increase in
// vertex replication — is minimal. Edges are held uniquely by 2D-hashed
// allocation processes; vertices are replicated and synchronised (§4).
// Multi-expansion (§5) batches the λ·|B| best boundary vertices per
// superstep to cut iteration counts by orders of magnitude.
//
// The distributed runtime is any cluster.Comm (internal/cluster): the
// in-process cluster, where every machine is a goroutine, or the TCP
// transport, one process per machine. All coordination is via tagged,
// size-accounted messages, so communication volume and iteration counts are
// faithful to the distributed algorithm even on one host.
//
// Where the superstep loop departs from Algorithms 1–4 — what enters the
// boundary, how the α cap is enforced, how a run closes, and the sequential
// allocator — is listed with its measured cost in README.md, "Deviations from
// Algorithms 1–4".
package dne

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// defaultMaxIterations bounds the superstep loop as a safety net. With λ=0.1
// a skewed graph finishes in tens of supersteps (§5, Fig. 6; RMAT 16 in
// 17–71, TestRMAT16SuperstepTable); a road network, whose boundary is a few
// vertices wide, takes hundreds, and single expansion about |E|/P.
const defaultMaxIterations = 1 << 20

// Config holds the algorithm parameters. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// Alpha is the imbalance factor α ≥ 1.0 of Eq. (2). Paper setting: 1.1.
	Alpha float64
	// Lambda is the multi-expansion factor λ ∈ (0,1] (§5). Paper setting:
	// 0.1. Ignored when SingleExpansion is set.
	Lambda float64
	// SingleExpansion selects exactly one boundary vertex per iteration,
	// the Theorem-1 setting (§6), until the run is closing: the drain
	// expands whole boundaries in this mode too.
	SingleExpansion bool
	// Seed drives every random choice (initial vertices, seed scans).
	Seed int64
	// MaxIterations bounds the superstep loop (0 = a large default).
	MaxIterations int
}

// DefaultConfig returns the paper's parameter setting (α=1.1, λ=0.1).
func DefaultConfig() Config {
	return Config{Alpha: 1.1, Lambda: 0.1}
}

// Result is a partitioning together with the run's execution metrics.
type Result struct {
	Partitioning *partition.Partitioning
	// Iterations is the number of supersteps executed (Fig. 6 metric).
	Iterations int
	// SweptEdges counts the edges of the closing hand-off: those still free
	// when the drain could reach nothing more, assigned in one sweep to the
	// partitions under their cap. Non-zero on most runs and small, except
	// where a single partition was left under its cap and took the rest.
	SweptEdges int64
	// CommBytes / CommMessages are the total inter-machine traffic of the
	// partitioning itself (result collection excluded).
	CommBytes    int64
	CommMessages int64
	// MemBytes is the analytic peak memory across all machines (graph
	// shares + partition edge sets + boundaries); MemScore = MemBytes/|E|
	// is the Fig. 9 metric.
	MemBytes int64
	Elapsed  time.Duration
	// WastedSelections counts selection deliveries ⟨v,p⟩ that allocated no
	// one-hop edge on the receiving machine. It counts deliveries, not
	// selections: ⟨v,p⟩ goes to every machine of v's grid row ∪ column, so a
	// vertex with one free edge wastes all but one of them by construction.
	// What is left over that fan-out is a boundary score gone stale (another
	// partition took v's edges since it was merged) or a quota used up.
	WastedSelections int64
	// TotalSelections counts all selection deliveries, the denominator of
	// the wasted share.
	TotalSelections int64
}

// MemScore returns MemBytes normalised by the number of edges (Fig. 9).
func (r *Result) MemScore(numEdges int64) float64 {
	if numEdges == 0 {
		return 0
	}
	return float64(r.MemBytes) / float64(numEdges)
}

// SimulatedNetworkTime estimates the network component this run would add
// on a physical cluster of the given size under the cost model — the
// substitution bridge between the in-process runtime (memcpy-fast
// communication) and the paper's InfiniBand testbed. Each superstep is
// charged its three synchronisation rounds (select, sync, step), matching
// the protocol in machine.go.
func (r *Result) SimulatedNetworkTime(m cluster.CostModel, machines int) time.Duration {
	return m.Estimate(r.CommMessages, r.CommBytes, r.Iterations*3, machines)
}

// validate checks the algorithm parameters.
func (cfg Config) validate() error {
	if cfg.Alpha < 1.0 {
		return fmt.Errorf("dne: alpha must be >= 1.0, got %g", cfg.Alpha)
	}
	if !cfg.SingleExpansion && (cfg.Lambda <= 0 || cfg.Lambda > 1) {
		return fmt.Errorf("dne: lambda must be in (0,1], got %g", cfg.Lambda)
	}
	return nil
}

// PartitionCtx runs Distributed NE on g with numParts machines (the paper
// runs one partition per machine, §3.3) and returns the partitioning plus
// metrics. The superstep loop checks ctx once per iteration (collectively,
// so all machines abort together) and returns ctx's error.
//
// The in-memory graph is split into |P| synthetic shards (contiguous
// stripes of the canonical edge list) and every machine runs PartitionShards
// on its stripe, the shuffle → subgraph → superstep pipeline a true
// multi-process run uses, so the in-process simulation exercises the exact
// distributed code path. The Result sums the machines' MachineStats.
func PartitionCtx(ctx context.Context, g *graph.Graph, numParts int, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if numParts <= 0 {
		return nil, fmt.Errorf("dne: numParts must be positive, got %d", numParts)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if g.NumEdges() == 0 {
		return nil, errors.New("dne: graph has no edges")
	}

	c := cluster.New(numParts)
	stats := make([]*MachineStats, numParts)

	start := time.Now()
	shards := graph.ShardsOf(g, numParts)
	var root *ShardResult
	err := c.Run(func(comm cluster.Comm) error {
		res, st, err := PartitionShards(ctx, comm, shards[comm.Rank()], cfg)
		stats[comm.Rank()] = st
		if res != nil {
			root = res
		}
		return err
	})
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	// The merged keys are the canonical edge list in ascending order, so the
	// merged owners line up 1:1 with g's edge indices.
	if root.NumEdges() != g.NumEdges() {
		return nil, fmt.Errorf("dne: collected %d edges, graph has %d", root.NumEdges(), g.NumEdges())
	}
	p := &partition.Partitioning{NumParts: numParts, Owner: root.Owner}

	res := &Result{Partitioning: p, Elapsed: elapsed, SweptEdges: stats[0].SweptEdges}
	for _, st := range stats {
		res.Iterations = max(res.Iterations, st.Iterations)
		res.MemBytes += st.MemBytes
		res.CommBytes += st.CommBytes
		res.CommMessages += st.CommMsgs
		res.WastedSelections += st.WastedSelections
		res.TotalSelections += st.TotalSelections
	}
	return res, nil
}
