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
// Rank 0 hosts the router. With -ckpt-dir the same run checkpoints every
// superstep and survives worker restarts. examples/multiprocess spawns the
// arrangement automatically.
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

const (
	// hardAbortGrace is how long a worker keeps waiting for the collective
	// (superstep-boundary) abort to complete after its context fires before
	// the transport watchdog kills blocked receives outright.
	hardAbortGrace = 10 * time.Second
	// routerDrainGrace is how long rank 0 waits, after its own run ended, for
	// the router to forward the last frames and see every goodbye.
	routerDrainGrace = 3 * time.Second
)

// dialPolicy is how a worker dials the router, at start and after a
// transport loss. Workers may start before rank 0's router listens, and a
// crashed rank 0 brings its router back only once it is restarted, so a
// refused dial is retried with backoff from 100 ms up to a 2 s cap, 30
// attempts plus one per 2 s of rejoinWindow: a worker gives up on a router
// that never comes up after at least 51 s plus rejoinWindow and at most 1.5
// times that (81 to 122 s at the 30 s default).
func dialPolicy(rejoinWindow time.Duration, seed int64) cluster.RetryPolicy {
	const maxDelay = 2 * time.Second
	extra := int((max(rejoinWindow, 0) + maxDelay - 1) / maxDelay)
	return cluster.RetryPolicy{MaxAttempts: 30 + extra, BaseDelay: 100 * time.Millisecond, MaxDelay: maxDelay, Seed: seed}
}

// options is the command line.
type options struct {
	rank, size              int
	addr, shardDir, ckptDir string
	seed                    int64
	alpha, lambda           float64
	ckptEvery, maxRestarts  int
	rejoinWindow, heartbeat time.Duration
}

func main() {
	var o options
	flag.IntVar(&o.rank, "rank", 0, "this machine's rank in [0,size)")
	flag.IntVar(&o.size, "size", 4, "number of machines (= partitions)")
	flag.StringVar(&o.addr, "addr", "127.0.0.1:7777", "router address (rank 0 listens here)")
	flag.StringVar(&o.shardDir, "shard-dir", "", "read EShard files with index%size==rank from this directory (required)")
	flag.Int64Var(&o.seed, "seed", 42, "shared random seed")
	def := dne.DefaultConfig()
	flag.Float64Var(&o.alpha, "alpha", def.Alpha, "imbalance factor")
	flag.Float64Var(&o.lambda, "lambda", def.Lambda, "expansion factor")
	flag.StringVar(&o.ckptDir, "ckpt-dir", "", "fault tolerance: write per-superstep checkpoints here and survive worker restarts")
	flag.IntVar(&o.ckptEvery, "ckpt-every", 1, "fault tolerance: checkpoint every N supersteps")
	flag.IntVar(&o.maxRestarts, "max-restarts", 3, "fault tolerance: mesh rebuilds survived before giving up")
	flag.DurationVar(&o.rejoinWindow, "rejoin-window", 30*time.Second, "fault tolerance: how long the router waits for a restarted worker to rejoin; workers keep dialling a missing router this much longer")
	flag.DurationVar(&o.heartbeat, "heartbeat", 0, "fault tolerance: heartbeat interval for detecting wedged peers (0 = off)")
	flag.Parse()
	if o.shardDir == "" {
		fmt.Fprintln(os.Stderr, "dneworker: -shard-dir is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "dneworker rank %d: %v\n", o.rank, err)
		os.Exit(1)
	}
}

// run is the one run path. Without -ckpt-dir it is a plain run: nothing is
// written, the router fails fast and a transport loss ends the run. With it,
// checkpoints are written there, the rank-0 router accepts mesh rebuilds and
// the worker rejoins after a transport loss (heartbeats, when asked for,
// detect wedged peers). The communicator is dialled and torn down inside
// dne.PartitionShardsFT.
func run(o options) error {
	cfg := dne.DefaultConfig()
	cfg.Seed, cfg.Alpha, cfg.Lambda = o.seed, o.alpha, o.lambda
	var ropt cluster.RouterOptions
	var dopt cluster.DialOptions
	opt := dne.FTOptions{
		LoadShard: func() (*graph.Shard, error) {
			shard, err := graph.ReadShardDir(o.shardDir, func(index, count uint32) bool {
				return int(index)%o.size == o.rank
			})
			if err != nil {
				return nil, err
			}
			fmt.Printf("rank %d: loaded %d shard edges (|V|=%d) from %s\n",
				o.rank, shard.NumEdges(), shard.NumVertices, o.shardDir)
			return shard, nil
		},
		MaxRestarts: o.maxRestarts,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if o.ckptDir != "" {
		ckpt, err := dne.NewCheckpointer(o.ckptDir, o.rank, o.size, o.ckptEvery, cfg)
		if err != nil {
			return err
		}
		opt.Checkpoint = ckpt
		// A peer silent for four heartbeat intervals is treated as dead.
		ropt = cluster.RouterOptions{
			MaxRejoins:       o.maxRestarts,
			RejoinWindow:     o.rejoinWindow,
			HeartbeatTimeout: 4 * o.heartbeat,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "router: "+format+"\n", args...)
			},
		}
		dopt = cluster.DialOptions{HeartbeatInterval: o.heartbeat, HeartbeatTimeout: 4 * o.heartbeat}
	}
	var wait func() error
	if o.rank == 0 {
		var err error
		if _, wait, err = cluster.StartRouterOpts(o.addr, o.size, ropt); err != nil {
			return err
		}
	}

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
	pol := dialPolicy(o.rejoinWindow, cfg.Seed^int64(o.rank))
	opt.Connect = func(context.Context) (cluster.Comm, error) {
		return cluster.DialTCPRetry(hardCtx, o.addr, o.rank, o.size, pol, dopt)
	}

	start := time.Now()
	res, stats, err := dne.PartitionShardsFT(ctx, cfg, opt)
	if err == nil {
		// closing-hand-off is the number of edges, over all ranks, that the
		// loop's last step assigned in one sweep once no boundary could reach
		// them: part of every normal run, not a fallback.
		fmt.Printf("rank %d: iterations=%d partition-edges=%d closing-hand-off=%d peak-mem=%.1fMB comm=%.1fMB\n",
			o.rank, stats.Iterations, stats.PartEdges, stats.SweptEdges,
			float64(stats.MemBytes)/(1<<20), float64(stats.CommBytes)/(1<<20))
		if res != nil {
			fmt.Printf("rank 0: RESULT |E|=%d parts=%d EB=%.3f checksum=%#x elapsed=%v\n",
				res.NumEdges(), res.NumParts, res.EdgeBalance(), res.Checksum(), time.Since(start))
		}
	}
	// At rank 0, let the router drain the final superstep's frames to the
	// other ranks, so that they finish, or abort collectively, rather than
	// find a dead connection.
	if wait != nil {
		done := make(chan error, 1)
		go func() { done <- wait() }()
		select {
		case werr := <-done:
			if err == nil {
				err = werr
			}
		case <-time.After(routerDrainGrace):
		}
	}
	return err
}
