package dne

import (
	"context"
	"errors"
	"fmt"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// recoverConnLost converts a dead-transport panic (a peer crashed, the
// router tore the mesh down, or the dial context fired) into a returned
// error, so a multi-process run fails with a diagnosable message instead of
// a goroutine panic. Any other panic is re-raised.
func recoverConnLost(err *error) {
	if r := recover(); r != nil {
		if cl, ok := r.(*cluster.ConnLostError); ok {
			*err = fmt.Errorf("dne: %w", cl)
			return
		}
		panic(r)
	}
}

// ShardResult is the assembled outcome of a shard-based run, available at
// rank 0 only: the complete deduplicated edge set in ascending canonical
// order (packed keys) and each edge's owning partition.
type ShardResult struct {
	NumParts int
	Keys     []uint64 // packed canonical edges, ascending
	Owner    []int32  // owner[i] is the partition of Keys[i]
}

// NumEdges returns the global deduplicated edge count.
func (r *ShardResult) NumEdges() int64 { return int64(len(r.Keys)) }

// EdgeCounts returns per-partition edge counts.
func (r *ShardResult) EdgeCounts() []int64 {
	counts := make([]int64, r.NumParts)
	for _, o := range r.Owner {
		counts[o]++
	}
	return counts
}

// EdgeBalance returns max |Eq| / avg |Eq| (the paper's balance metric).
func (r *ShardResult) EdgeBalance() float64 {
	if len(r.Keys) == 0 {
		return 0
	}
	var maxC int64
	for _, c := range r.EdgeCounts() {
		if c > maxC {
			maxC = c
		}
	}
	return float64(maxC) * float64(r.NumParts) / float64(len(r.Keys))
}

// Checksum returns the FNV-64a checksum of the owner sequence in canonical
// edge order — directly comparable with partition.Checksum of an in-process
// run over the same graph, seed and partition count.
func (r *ShardResult) Checksum() uint64 { return partition.Checksum(r.Owner) }

// PartitionShards runs Distributed NE with a per-rank edge shard as the
// unit of input: no rank ever holds the full graph during partitioning.
// Every rank calls it with its own shard (an arbitrary, possibly duplicated
// slice of the raw edge stream — shard files from cmd/gengraph, or a stripe
// from graph.ShardsOf); the ranks' shards together must cover the graph.
// The shard is consumed: its edge slice is released after the shuffle so
// the rank's peak memory stays O(|E|/P + boundary) through the superstep
// loop. Result collection is the one deliberate exception: rank 0 assembles
// the final (edge, owner) sequence — 12 bytes per global edge, well under
// the graph+CSR it never builds — after the algorithm (and its reported
// peak-memory stat) has finished.
//
// The result is non-nil at rank 0 only. The seeded partitioning is
// bit-identical to the in-process run (Partition) with the same seed, graph
// and partition count.
func PartitionShards(ctx context.Context, comm cluster.Comm, shard *graph.Shard, cfg Config) (_ *ShardResult, _ *MachineStats, err error) {
	defer recoverConnLost(&err)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	var res machineResult
	keys, owners, err := runShardMachine(ctx, comm, shard, cfg, &res)
	if err != nil {
		return nil, nil, err
	}
	if comm.Rank() != 0 {
		return nil, res.stats(), nil
	}
	return &ShardResult{NumParts: comm.Size(), Keys: keys, Owner: owners}, res.stats(), nil
}

// shuffleInput is the input phase of the shard data plane: shuffle the local
// shard to grid owners, agree on |E|, and build the subgraph from the
// received edges only. It also returns those edges (sorted, deduplicated),
// which the fault-tolerant driver persists as its checkpoint base.
func shuffleInput(comm cluster.Comm, shard *graph.Shard) (machineInput, []uint64, error) {
	p := comm.Size()
	shardBytes := shard.Bytes()
	local, shuffleBytes := shuffleShard(comm, newGrid(p), shard.Packed)
	// The shard has served its purpose; release it so the expansion phase
	// runs on the subgraph alone.
	shard.Packed = nil
	totalE := cluster.AllGatherSum(comm, int64(len(local)))
	if totalE == 0 {
		return machineInput{}, nil, errors.New("dne: shards hold no edges")
	}
	return machineInput{
		sg:             buildSubGraphPacked(shard.NumVertices, p, local),
		numVertices:    shard.NumVertices,
		totalEdges:     totalE,
		inputPeakBytes: shardBytes + shuffleBytes,
	}, local, nil
}

// runShardMachine is the per-rank body of the shard data plane: the input
// phase, the superstep loop, and the collection of (key, owner) runs at
// rank 0.
func runShardMachine(ctx context.Context, comm cluster.Comm, shard *graph.Shard, cfg Config, res *machineResult) ([]uint64, []int32, error) {
	in, _, err := shuffleInput(comm, shard)
	if err != nil {
		return nil, nil, err
	}
	if err := runMachine(ctx, comm, cfg, in, res); err != nil {
		return nil, nil, err
	}
	keys, owners := collectOwnersByKey(comm, in.sg)
	return keys, owners, nil
}

// FTOptions configures PartitionShardsFT, the fault-tolerant shard driver.
type FTOptions struct {
	// Checkpoint persists and restores this rank's superstep state. Required.
	Checkpoint *Checkpointer
	// Connect dials a fresh communicator for one mesh generation. Called
	// once per attempt; after a transport loss the previous communicator is
	// aborted and Connect is called again (it should retry internally, e.g.
	// cluster.DialTCPRetry, while the router's rejoin window is open).
	Connect func(ctx context.Context) (cluster.Comm, error)
	// LoadShard re-reads this rank's input shard. Called on any attempt that
	// cannot restore from a checkpoint (including the first), so the driver
	// never needs the shard held in memory across attempts.
	LoadShard func() (*graph.Shard, error)
	// MaxRestarts bounds how many transport losses are survived before the
	// last error is returned. <= 0 means 3.
	MaxRestarts int
	// Logf, when non-nil, receives one line per recovery event.
	Logf func(format string, args ...any)
}

// closableComm is what Connect usually returns: a Comm whose transport can
// be shut down cleanly (Close) or abandoned like a crash (Abort).
// *cluster.TCPNode implements it; in-process test comms may not, in which
// case teardown is the test harness's business.
type closableComm interface {
	Close() error
	Abort() error
}

// PartitionShardsFT is PartitionShards with superstep checkpointing and
// bounded rejoin: when the transport dies mid-run (*cluster.ConnLostError* —
// a peer crashed or the router tore the mesh down), the rank reconnects via
// opt.Connect, all ranks of the new mesh negotiate the newest superstep
// every one of them can restore (cluster.AllGatherMin over local checkpoint
// inventories), and the run resumes from that boundary. The recovered
// partitioning is bit-identical to a fault-free run's: the checkpoint
// captures every input to future supersteps, including the PRNG position.
//
// A rank that finds no common checkpoint (negotiated superstep -1, e.g. the
// failure predated the first checkpoint) restarts from its shard via
// opt.LoadShard. The communicator is owned by this call: closed cleanly on
// success, aborted on failure.
func PartitionShardsFT(ctx context.Context, cfg Config, opt FTOptions) (*ShardResult, *MachineStats, error) {
	if opt.Checkpoint == nil || opt.Connect == nil || opt.LoadShard == nil {
		return nil, nil, errors.New("dne: FTOptions requires Checkpoint, Connect and LoadShard")
	}
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	maxRestarts := opt.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 3
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var lastErr error
	for attempt := 0; attempt <= maxRestarts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if attempt > 0 {
			ckptObs.rejoins.Add(1)
			logf("dne: rank %d rejoining after transport loss (attempt %d/%d): %v",
				opt.Checkpoint.rank, attempt, maxRestarts, lastErr)
		}
		comm, err := opt.Connect(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("dne: connect (attempt %d): %w", attempt, err)
		}
		result, stats, err := runShardAttempt(ctx, comm, cfg, opt, logf)
		if err == nil {
			if cc, ok := comm.(closableComm); ok {
				cc.Close()
			}
			return result, stats, nil
		}
		if cc, ok := comm.(closableComm); ok {
			cc.Abort()
		}
		var cl *cluster.ConnLostError
		if !errors.As(err, &cl) {
			return nil, nil, err
		}
		lastErr = err
	}
	return nil, nil, fmt.Errorf("dne: %d restarts exhausted: %w", maxRestarts, lastErr)
}

// runShardAttempt is one mesh generation of the fault-tolerant driver:
// negotiate the resume point, restore or rebuild, run, collect.
func runShardAttempt(ctx context.Context, comm cluster.Comm, cfg Config, opt FTOptions, logf func(string, ...any)) (_ *ShardResult, _ *MachineStats, err error) {
	defer recoverConnLost(&err)
	c := opt.Checkpoint
	p := comm.Size()
	var res machineResult
	var in machineInput

	// Negotiate the newest superstep every rank can restore. The collective
	// doubles as the rejoin barrier: survivors block here until the restarted
	// rank's hello completes the mesh.
	newest := c.Newest()
	resume := cluster.AllGatherMin(comm, newest)
	if resume >= 0 {
		numVertices, totalE, packed, err := c.LoadBase()
		if err != nil {
			return nil, nil, err
		}
		st, err := c.LoadState(resume)
		if err != nil {
			return nil, nil, err
		}
		logf("dne: rank %d restoring checkpoint at superstep %d (%d local edges)", c.rank, resume, len(packed))
		in = machineInput{
			sg:          buildSubGraphPacked(numVertices, p, packed),
			numVertices: numVertices,
			totalEdges:  totalE,
			resume:      st,
		}
	} else {
		shard, err := opt.LoadShard()
		if err != nil {
			return nil, nil, fmt.Errorf("dne: loading shard: %w", err)
		}
		var local []uint64
		in, local, err = shuffleInput(comm, shard)
		if err != nil {
			return nil, nil, err
		}
		if err := c.WriteBase(in.numVertices, in.totalEdges, local); err != nil {
			return nil, nil, err
		}
	}
	in.ckpt = c
	if err := runMachine(ctx, comm, cfg, in, &res); err != nil {
		return nil, nil, err
	}
	keys, owners := collectOwnersByKey(comm, in.sg)
	if comm.Rank() != 0 {
		return nil, res.stats(), nil
	}
	return &ShardResult{NumParts: p, Keys: keys, Owner: owners}, res.stats(), nil
}

// MachineStats is the public view of one machine's execution metrics.
type MachineStats struct {
	Iterations int
	SweptEdges int64
	MemBytes   int64
	PartEdges  int64
	CommBytes  int64
	CommMsgs   int64
}

func (r *machineResult) stats() *MachineStats {
	return &MachineStats{
		Iterations: r.iterations,
		SweptEdges: r.swept,
		MemBytes:   r.memBytes,
		PartEdges:  r.partEdges,
		CommBytes:  r.commBytes,
		CommMsgs:   r.commMsgs,
	}
}
