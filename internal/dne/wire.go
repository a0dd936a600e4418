package dne

import (
	"context"
	"errors"
	"fmt"
	"math"

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
// The shard is consumed: its edges are sorted and deduplicated in place,
// then released once routed, so the rank's peak memory stays
// O(|E|/P + boundary) through the superstep loop. Result collection is the
// one deliberate exception: rank 0 assembles the final (edge, owner)
// sequence — 12 bytes per global edge, well under the graph+CSR it never
// builds — after the algorithm (and its reported peak-memory stat) has
// finished. The runs travel to it in chunks that fit the transport's
// MaxBody (cluster.GatherKeyed), so no buffer on the way grows with them,
// and every rank returns only once rank 0 has checked them all.
//
// The result is non-nil at rank 0 only; a result rank 0 rejects is an error
// at every rank. The seeded partitioning is bit-identical to the in-process
// run (PartitionCtx) with the same seed, graph and partition count.
//
// Cancellation is collective: every rank returns at the end of the superstep
// in which any rank's ctx was done, with ctx's error or context.Canceled; a
// rank that enters with a done ctx still takes part in the shuffle and the
// first superstep. The caller owns comm and
// tears it down; a transport loss comes back as an error wrapping
// *cluster.ConnLostError, after which comm is dead.
func PartitionShards(ctx context.Context, comm cluster.Comm, shard *graph.Shard, cfg Config) (*ShardResult, *MachineStats, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	return runRank(ctx, comm, cfg, FTOptions{LoadShard: func() (*graph.Shard, error) { return shard, nil }})
}

// shuffleInput is the input phase of the shard data plane: sort and
// deduplicate the local shard (in place, and free when it is ascending
// already), shuffle it to grid owners, agree on |E|, and build the subgraph
// from the received edges only. It also returns those edges (sorted,
// deduplicated), which a checkpointed run persists as its checkpoint base.
func shuffleInput(comm cluster.Comm, shard *graph.Shard) (machineInput, []uint64, error) {
	p := comm.Size()
	shardBytes := shard.Bytes()
	shard.SortDedup()
	// Routing copies the shard into its owners' buckets, and nothing reads
	// it after that: without the reference its array can go during the
	// exchange, and the expansion phase runs on the subgraph alone.
	packed := shard.Packed
	shard.Packed = nil
	local, shuffleBytes, runErr := shuffleShard(comm, packed)
	// A rank that was sent an unordered run adds MinInt64/P instead of its
	// count: P of those cannot overflow, and no graph of 2^63/P edges fits
	// the run, so every rank sees a negative sum and all of them fail in the
	// same collective instead of the rest waiting on the failed one.
	n := int64(len(local))
	if runErr != nil {
		n = math.MinInt64 / int64(p)
	}
	totalE := cluster.AllGatherSum(comm, n)
	switch {
	case runErr != nil:
		return machineInput{}, nil, runErr
	case totalE < 0:
		return machineInput{}, nil, errors.New("dne: another machine was sent an unordered shuffle run")
	case totalE == 0:
		return machineInput{}, nil, errors.New("dne: shards hold no edges")
	}
	return machineInput{
		sg:             buildSubGraphPacked(p, local),
		numVertices:    shard.NumVertices,
		totalEdges:     totalE,
		inputPeakBytes: shardBytes + shuffleBytes,
	}, local, nil
}

// runRank is one rank's share of one mesh generation of a run, the body of
// every entry point: the input phase, the superstep loop, and the collection
// of (key, owner) runs at rank 0. Given a checkpointer, the ranks first
// negotiate the newest superstep every one of them can restore
// (cluster.AllGatherMin over local checkpoint inventories; the collective
// doubles as the rejoin barrier) and resume from it; when there is none, or
// without a checkpointer, the input is the shuffled shard, which a
// checkpointed run persists as its base.
func runRank(ctx context.Context, comm cluster.Comm, cfg Config, opt FTOptions) (_ *ShardResult, _ *MachineStats, err error) {
	defer recoverConnLost(&err)
	c := opt.Checkpoint
	resume := int64(-1)
	if c != nil {
		resume = cluster.AllGatherMin(comm, c.Newest())
	}
	var in machineInput
	if resume >= 0 {
		numVertices, totalE, packed, err := c.LoadBase()
		if err != nil {
			return nil, nil, err
		}
		st, err := c.LoadState(resume)
		if err != nil {
			return nil, nil, err
		}
		opt.logf("dne: rank %d restoring checkpoint at superstep %d (%d local edges)", c.rank, resume, len(packed))
		in = machineInput{
			sg:          buildSubGraphPacked(comm.Size(), packed),
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
		if in, local, err = shuffleInput(comm, shard); err != nil {
			return nil, nil, err
		}
		if c != nil {
			if err := c.WriteBase(in.numVertices, in.totalEdges, local); err != nil {
				return nil, nil, err
			}
		}
	}
	in.ckpt = c
	stats := new(MachineStats)
	if err := runMachine(ctx, comm, cfg, in, stats); err != nil {
		return nil, nil, err
	}
	keys, owners, err := collectOwnersByKey(comm, in.sg)
	if err != nil {
		return nil, nil, err
	}
	if comm.Rank() != 0 {
		return nil, stats, nil
	}
	return &ShardResult{NumParts: comm.Size(), Keys: keys, Owner: owners}, stats, nil
}

// FTOptions configures PartitionShardsFT. Only Connect and LoadShard are
// required: without a Checkpoint the run is a plain PartitionShards run of
// exactly one attempt over the communicator Connect returns.
type FTOptions struct {
	// Checkpoint persists and restores this rank's superstep state. When
	// nil, nothing is written and a transport loss ends the run.
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
	// last error is returned. <= 0 means 3. Ignored without a Checkpoint.
	MaxRestarts int
	// Logf, when non-nil, receives one line per recovery event.
	Logf func(format string, args ...any)
}

func (o FTOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// closableComm is what Connect usually returns: a Comm whose transport can
// be shut down cleanly (Close) or abandoned like a crash (Abort).
// *cluster.TCPNode implements it; in-process test comms may not, in which
// case teardown is the test harness's business.
type closableComm interface {
	Close() error
	Abort() error
}

// PartitionShardsFT is PartitionShards over a communicator it dials itself,
// with superstep checkpointing and bounded rejoin when opt.Checkpoint is
// set: when the transport dies mid-run (a *cluster.ConnLostError: a peer
// crashed or the router tore the mesh down), the rank reconnects via
// opt.Connect, all ranks of the new mesh negotiate the newest superstep
// every one of them can restore, and the run resumes from that boundary. The
// recovered partitioning is bit-identical to a fault-free run's: the
// checkpoint captures every input to future supersteps, including the PRNG
// position. A rank that finds no common checkpoint (negotiated superstep
// -1, e.g. the failure predated the first checkpoint) restarts from its
// shard via opt.LoadShard.
//
// This call owns each communicator Connect returns: it aborts one that lost
// its transport and closes every other one cleanly (a goodbye to the router),
// on success and on any other error alike. Cancellation is collective, as in
// PartitionShards; ctx is checked alone only before a reconnect, when there
// is no mesh to tell.
//
// Every rank stays in the mesh until rank 0 has checked the whole result,
// so a loss anywhere before that point is rejoined by all of them. A loss
// at the very end — a rank dying while it waits for rank 0's verdict, which
// other ranks may already have received — leaves rank 0 with the result
// and the lost rank with the error of a reconnect nobody answers.
func PartitionShardsFT(ctx context.Context, cfg Config, opt FTOptions) (*ShardResult, *MachineStats, error) {
	if opt.Connect == nil || opt.LoadShard == nil {
		return nil, nil, errors.New("dne: FTOptions requires Connect and LoadShard")
	}
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	maxRestarts := opt.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 3
	}
	var lastErr error
	for attempt := 0; attempt <= maxRestarts; attempt++ {
		if attempt > 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			ckptObs.rejoins.Add(1)
			opt.logf("dne: rank %d rejoining after transport loss (attempt %d/%d): %v",
				opt.Checkpoint.rank, attempt, maxRestarts, lastErr)
		}
		comm, err := opt.Connect(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("dne: connect (attempt %d): %w", attempt, err)
		}
		result, stats, err := runRank(ctx, comm, cfg, opt)
		var cl *cluster.ConnLostError
		lost := errors.As(err, &cl)
		if cc, ok := comm.(closableComm); ok {
			if lost {
				cc.Abort()
			} else if cerr := cc.Close(); err == nil {
				err = cerr
			}
		}
		if !lost || opt.Checkpoint == nil {
			if err != nil {
				return nil, nil, err
			}
			return result, stats, nil
		}
		lastErr = err
	}
	return nil, nil, fmt.Errorf("dne: %d restarts exhausted: %w", maxRestarts, lastErr)
}

// MachineStats is one rank's execution metrics.
type MachineStats struct {
	// Iterations is the number of supersteps executed.
	Iterations int
	// SweptEdges counts the edges of the closing hand-off, over all ranks.
	SweptEdges int64
	// MemBytes is this rank's analytic peak memory.
	MemBytes int64
	// PartEdges is |Ep| of this rank's partition.
	PartEdges int64
	// CommBytes / CommMsgs are this rank's traffic up to the end of the
	// superstep loop (result collection excluded).
	CommBytes int64
	CommMsgs  int64
	// WastedSelections counts the selection deliveries that allocated no
	// edge here, TotalSelections all selection deliveries processed here.
	WastedSelections int64
	TotalSelections  int64
}
