// Command dneworker is one machine of a multi-process Distributed NE run
// over TCP.
//
// Each worker reads only its own slice of the input — the EShard files in
// -shard-dir whose index ≡ rank (mod size), as written by gengraph -shards
// — so no process holds the full graph while partitioning
// (rank 0 assembles the final 12-byte-per-edge owner sequence at collection
// time, after the algorithm finishes). The workers shuffle their shards to
// 2D-grid owners, expand, and rank 0 prints the partitioning checksum,
// which equals dnepart -checksum for the same graph, seed and partition
// count:
//
//	gengraph -kind rmat -scale 16 -ef 16 -seed 42 -shards 8 -shard-dir shards/
//	dneworker -rank 0 -size 4 -addr 127.0.0.1:7777 -shard-dir shards/ &
//	dneworker -rank 1 -size 4 -addr 127.0.0.1:7777 -shard-dir shards/ &
//	dneworker -rank 2 -size 4 -addr 127.0.0.1:7777 -shard-dir shards/ &
//	dneworker -rank 3 -size 4 -addr 127.0.0.1:7777 -shard-dir shards/
//
// Rank 0 hosts the router. examples/multiprocess spawns the arrangement
// automatically.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/graph"
)

// hardAbortGrace is how long a worker keeps waiting for the collective
// (superstep-boundary) abort to complete after its context fires before the
// transport watchdog kills blocked receives outright.
const hardAbortGrace = 10 * time.Second

func main() {
	var (
		rank     = flag.Int("rank", 0, "this machine's rank in [0,size)")
		size     = flag.Int("size", 4, "number of machines (= partitions)")
		addr     = flag.String("addr", "127.0.0.1:7777", "router address (rank 0 listens here)")
		shardDir = flag.String("shard-dir", "", "read EShard files with index%size==rank from this directory (required)")
		seed     = flag.Int64("seed", 42, "shared random seed")
		alpha    = flag.Float64("alpha", 1.1, "imbalance factor")
		lambda   = flag.Float64("lambda", 0.1, "expansion factor")

		ckptDir      = flag.String("ckpt-dir", "", "fault tolerance: write per-superstep checkpoints here and survive worker restarts")
		ckptEvery    = flag.Int("ckpt-every", 1, "fault tolerance: checkpoint every N supersteps")
		maxRestarts  = flag.Int("max-restarts", 3, "fault tolerance: mesh rebuilds survived before giving up")
		rejoinWindow = flag.Duration("rejoin-window", 30*time.Second, "fault tolerance: how long the router waits for a restarted worker to rejoin")
		heartbeat    = flag.Duration("heartbeat", 0, "fault tolerance: heartbeat interval for detecting wedged peers (0 = off)")
	)
	flag.Parse()
	if *shardDir == "" {
		fmt.Fprintln(os.Stderr, "dneworker: -shard-dir is required")
		flag.Usage()
		os.Exit(2)
	}
	ft := ftFlags{dir: *ckptDir, every: *ckptEvery, maxRestarts: *maxRestarts,
		rejoinWindow: *rejoinWindow, heartbeat: *heartbeat}
	if err := run(*rank, *size, *addr, *shardDir, *seed, *alpha, *lambda, ft); err != nil {
		fmt.Fprintf(os.Stderr, "dneworker rank %d: %v\n", *rank, err)
		os.Exit(1)
	}
}

// ftFlags bundles the fault-tolerance command line. A non-empty dir turns
// the feature on: checkpoints are written there, the rank-0 router accepts
// mesh rebuilds, and dials retry with backoff.
type ftFlags struct {
	dir          string
	every        int
	maxRestarts  int
	rejoinWindow time.Duration
	heartbeat    time.Duration
}

func (f ftFlags) enabled() bool { return f.dir != "" }

// heartbeatTimeout is the deadline paired with the heartbeat interval: a
// peer silent for four intervals is treated as dead.
func (f ftFlags) heartbeatTimeout() time.Duration {
	if f.heartbeat <= 0 {
		return 0
	}
	return 4 * f.heartbeat
}

func run(rank, size int, addr, shardDir string, seed int64, alpha, lambda float64, ft ftFlags) error {
	var wait func() error
	if rank == 0 {
		ropt := cluster.RouterOptions{}
		if ft.enabled() {
			ropt.MaxRejoins = ft.maxRestarts
			ropt.RejoinWindow = ft.rejoinWindow
			ropt.HeartbeatTimeout = ft.heartbeatTimeout()
			ropt.Logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "router: "+format+"\n", args...)
			}
		}
		var err error
		_, wait, err = cluster.StartRouterOpts(addr, size, ropt)
		if err != nil {
			return err
		}
	}

	cfg := dne.DefaultConfig()
	cfg.Seed = seed
	cfg.Alpha = alpha
	cfg.Lambda = lambda

	// Ctrl-C aborts the run collectively: the local flag rides the next
	// superstep's select messages and every rank returns together. The
	// transport watchdog (hardCtx) is the backstop for when a peer is
	// already dead and those messages can never complete a superstep: a
	// grace period after the soft abort, blocked receives fail outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	hardCtx, hardCancel := context.WithCancel(context.Background())
	defer hardCancel()
	go func() {
		<-ctx.Done()
		time.Sleep(hardAbortGrace)
		hardCancel()
	}()

	if ft.enabled() {
		// The fault-tolerant driver owns dialing: it reconnects after a
		// transport loss, so the node is created (and re-created) inside.
		start := time.Now()
		runErr := runShardsFT(ctx, hardCtx, rank, size, addr, shardDir, cfg, ft, start)
		if wait != nil {
			done := make(chan error, 1)
			go func() { done <- wait() }()
			select {
			case err := <-done:
				if runErr == nil {
					runErr = err
				}
			case <-time.After(3 * time.Second):
			}
		}
		return runErr
	}

	node, err := dialWithRetry(hardCtx, addr, rank, size)
	if err != nil {
		return err
	}

	if runErr := runShards(ctx, node, rank, size, shardDir, cfg, time.Now()); runErr != nil {
		// Close politely (Bye) and, at rank 0, let the router drain the
		// final superstep's frames to the other ranks so they abort
		// collectively rather than finding a dead connection.
		_ = node.Close()
		if wait != nil {
			done := make(chan error, 1)
			go func() { done <- wait() }()
			select {
			case <-done:
			case <-time.After(3 * time.Second):
			}
		}
		return runErr
	}
	if err := node.Close(); err != nil {
		return err
	}
	if wait != nil {
		return wait()
	}
	return nil
}

// printStats prints one rank's line. closing-hand-off is the number of edges,
// over all ranks, that the loop's last step assigned in one sweep once no
// boundary could reach them: part of every normal run, not a fallback.
func printStats(rank int, stats *dne.MachineStats) {
	fmt.Printf("rank %d: iterations=%d partition-edges=%d closing-hand-off=%d peak-mem=%.1fMB comm=%.1fMB\n",
		rank, stats.Iterations, stats.PartEdges, stats.SweptEdges,
		float64(stats.MemBytes)/(1<<20), float64(stats.CommBytes)/(1<<20))
}

// runShards loads this rank's own shard files — it never sees the full
// graph — and runs its share of the partitioning.
func runShards(ctx context.Context, node *cluster.TCPNode, rank, size int, dir string, cfg dne.Config, start time.Time) error {
	shard, err := graph.ReadShardDir(dir, func(index, count uint32) bool {
		return int(index)%size == rank
	})
	if err != nil {
		return err
	}
	fmt.Printf("rank %d: loaded %d shard edges (|V|=%d) from %s\n",
		rank, shard.NumEdges(), shard.NumVertices, dir)
	res, stats, err := dne.PartitionShards(ctx, node, shard, cfg)
	if err != nil {
		return err
	}
	printStats(rank, stats)
	if res != nil {
		fmt.Printf("rank 0: RESULT |V|=%d |E|=%d parts=%d EB=%.3f checksum=%#x elapsed=%v\n",
			shard.NumVertices, res.NumEdges(), res.NumParts, res.EdgeBalance(),
			res.Checksum(), time.Since(start))
	}
	return nil
}

// runShardsFT is the fault-tolerant shard data plane: per-superstep
// checkpoints in ft.dir, dial retries with backoff, and rejoin after a
// transport loss. ctx aborts the run collectively at the next superstep
// boundary; hardCtx is the transport watchdog that kills blocked receives.
func runShardsFT(ctx, hardCtx context.Context, rank, size int, addr, dir string, cfg dne.Config, ft ftFlags, start time.Time) error {
	ckpt, err := dne.NewCheckpointer(ft.dir, rank, size, ft.every, cfg)
	if err != nil {
		return err
	}
	loadShard := func() (*graph.Shard, error) {
		shard, err := graph.ReadShardDir(dir, func(index, count uint32) bool {
			return int(index)%size == rank
		})
		if err != nil {
			return nil, err
		}
		fmt.Printf("rank %d: loaded %d shard edges (|V|=%d) from %s\n",
			rank, shard.NumEdges(), shard.NumVertices, dir)
		return shard, nil
	}
	pol := cluster.RetryPolicy{
		MaxAttempts: 100,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    ft.rejoinWindow / 10,
		Seed:        cfg.Seed ^ int64(rank),
	}
	dopt := cluster.DialOptions{
		HeartbeatInterval: ft.heartbeat,
		HeartbeatTimeout:  ft.heartbeatTimeout(),
	}
	connect := func(context.Context) (cluster.Comm, error) {
		return cluster.DialTCPRetry(hardCtx, addr, rank, size, pol, dopt)
	}
	res, stats, err := dne.PartitionShardsFT(ctx, cfg, dne.FTOptions{
		Checkpoint:  ckpt,
		Connect:     connect,
		LoadShard:   loadShard,
		MaxRestarts: ft.maxRestarts,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	printStats(rank, stats)
	if res != nil {
		fmt.Printf("rank 0: RESULT |E|=%d parts=%d EB=%.3f checksum=%#x elapsed=%v\n",
			res.NumEdges(), res.NumParts, res.EdgeBalance(),
			res.Checksum(), time.Since(start))
	}
	return nil
}

// dialWithRetry tolerates workers starting before the rank-0 router listens.
func dialWithRetry(ctx context.Context, addr string, rank, size int) (*cluster.TCPNode, error) {
	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		node, err := cluster.DialTCPContext(ctx, addr, rank, size)
		if err == nil {
			return node, nil
		}
		lastErr = err
		time.Sleep(100 * time.Millisecond)
	}
	return nil, lastErr
}
