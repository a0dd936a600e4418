package dne

import (
	"context"
	"errors"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

// runRanksWithin runs fn for every rank concurrently and returns each rank's
// error. A rank still running after a minute fails the test: a rank left
// waiting for a peer that has gone is a hang, not a slow test.
func runRanksWithin(t *testing.T, parts int, fn func(rank int) error) []error {
	t.Helper()
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for rank := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[rank] = fn(rank)
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("ranks still running after a minute: one left its peers waiting")
	}
	return errs
}

// TestFTWithoutCheckpointIsAPlainRun runs PartitionShardsFT with a nil
// Checkpoint: one Connect per rank, no file written, and the checksum and
// every rank's statistics of PartitionShards on the same input.
func TestFTWithoutCheckpointIsAPlainRun(t *testing.T) {
	g, parts, cfg := pinnedInput()
	want, wantStats := runShardCluster(t, graph.ShardsOf(g, parts), cfg)

	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	bytesBefore := ckptObs.bytes.Load()
	cl := cluster.New(parts)
	shards := graph.ShardsOf(g, parts)
	var connects atomic.Int64
	results := make([]*ShardResult, parts)
	stats := make([]*MachineStats, parts)
	errs := runRanksWithin(t, parts, func(rank int) (err error) {
		results[rank], stats[rank], err = PartitionShardsFT(context.Background(), cfg, FTOptions{
			Connect: func(context.Context) (cluster.Comm, error) {
				connects.Add(1)
				return cl.Node(rank), nil
			},
			LoadShard: func() (*graph.Shard, error) { return shards[rank], nil },
		})
		return err
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if n := connects.Load(); n != int64(parts) {
		t.Errorf("%d Connect calls over %d ranks, want one each", n, parts)
	}
	if n := ckptObs.bytes.Load() - bytesBefore; n != 0 {
		t.Errorf("a run without a checkpointer wrote %d checkpoint bytes", n)
	}
	if files, _ := os.ReadDir(tmp); len(files) != 0 {
		t.Errorf("a run without a checkpointer left %d files in TMPDIR", len(files))
	}
	if got := results[0].Checksum(); got != want.Checksum() {
		t.Errorf("checksum %#x, PartitionShards %#x", got, want.Checksum())
	}
	for rank := range stats {
		if *stats[rank] != *wantStats[rank] {
			t.Errorf("rank %d: stats %+v, PartitionShards %+v", rank, *stats[rank], *wantStats[rank])
		}
	}
}

// TestFTWithoutCheckpointDoesNotRejoin kills rank 2 mid-run: with a nil
// Checkpoint every rank returns the transport loss, and none dials again.
func TestFTWithoutCheckpointDoesNotRejoin(t *testing.T) {
	g := gen.RMAT(9, 8, 11)
	const parts = 4
	cfg := DefaultConfig()
	cfg.Seed = 5
	_, ops := referenceRun(t, g, parts, cfg)

	cl := cluster.New(parts)
	shards := graph.ShardsOf(g, parts)
	var fired atomic.Int64
	connects := make([]atomic.Int64, parts)
	errs := runRanksWithin(t, parts, func(rank int) error {
		_, _, err := PartitionShardsFT(context.Background(), cfg, FTOptions{
			Connect: func(context.Context) (cluster.Comm, error) {
				connects[rank].Add(1)
				if rank != 2 {
					return cl.Node(rank), nil
				}
				f := cluster.NewFault(cl.Node(rank), cluster.FaultConfig{KillAtOp: ops[2] / 2})
				f.OnKill = func(err error) {
					fired.Add(1)
					cl.FailAll(err)
				}
				return f, nil
			},
			LoadShard:   func() (*graph.Shard, error) { return shards[rank], nil },
			MaxRestarts: 4,
		})
		return err
	})
	if fired.Load() == 0 {
		t.Fatal("scheduled kill never fired")
	}
	for rank, err := range errs {
		var lost *cluster.ConnLostError
		if !errors.As(err, &lost) {
			t.Errorf("rank %d: %v, want a *cluster.ConnLostError", rank, err)
		}
		if n := connects[rank].Load(); n != 1 {
			t.Errorf("rank %d: %d Connect calls, want 1", rank, n)
		}
	}
}

// TestOneRankCancelledAbortsEveryRank enters a run with only rank 2's
// context already cancelled. Cancellation is decided collectively, so the
// other ranks must not wait forever for rank 2: every rank returns
// context.Canceled, in process, with checkpoints, and over TCP.
func TestOneRankCancelledAbortsEveryRank(t *testing.T) {
	g := gen.RMAT(9, 8, 11)
	const parts = 4
	cfg := DefaultConfig()
	cfg.Seed = 5
	ctxOf := func(rank int) context.Context {
		if rank != 2 {
			return context.Background()
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}
	wantCanceled := func(t *testing.T, errs []error) {
		t.Helper()
		for rank, err := range errs {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("rank %d: %v, want context.Canceled", rank, err)
			}
			var lost *cluster.ConnLostError
			if errors.As(err, &lost) {
				t.Errorf("rank %d: a cancelled run lost its transport: %v", rank, err)
			}
		}
	}

	t.Run("in-process", func(t *testing.T) {
		cl := cluster.New(parts)
		shards := graph.ShardsOf(g, parts)
		wantCanceled(t, runRanksWithin(t, parts, func(rank int) error {
			_, _, err := PartitionShards(ctxOf(rank), cl.Node(rank), shards[rank], cfg)
			return err
		}))
	})

	t.Run("checkpointed", func(t *testing.T) {
		cl := cluster.New(parts)
		shards := graph.ShardsOf(g, parts)
		dirs := make([]string, parts)
		for rank := range dirs {
			dirs[rank] = t.TempDir()
		}
		var mu sync.Mutex
		var log strings.Builder
		wantCanceled(t, runRanksWithin(t, parts, func(rank int) error {
			ckpt, err := NewCheckpointer(dirs[rank], rank, parts, 1, cfg)
			if err != nil {
				return err
			}
			_, _, err = PartitionShardsFT(ctxOf(rank), cfg, FTOptions{
				Checkpoint: ckpt,
				Connect:    func(context.Context) (cluster.Comm, error) { return cl.Node(rank), nil },
				LoadShard:  func() (*graph.Shard, error) { return shards[rank], nil },
				Logf: func(format string, args ...any) {
					mu.Lock()
					defer mu.Unlock()
					log.WriteString(format + "\n")
				},
			})
			return err
		}))
		if strings.Contains(log.String(), "rejoining") {
			t.Errorf("a cancelled run rejoined:\n%s", log.String())
		}
	})

	t.Run("tcp", func(t *testing.T) {
		addr, wait, err := cluster.StartRouter("127.0.0.1:0", parts)
		if err != nil {
			t.Fatal(err)
		}
		shards := graph.ShardsOf(g, parts)
		wantCanceled(t, runRanksWithin(t, parts, func(rank int) error {
			_, _, err := PartitionShardsFT(ctxOf(rank), cfg, FTOptions{
				Connect: func(context.Context) (cluster.Comm, error) {
					return cluster.DialTCP(addr, rank, parts)
				},
				LoadShard: func() (*graph.Shard, error) { return shards[rank], nil },
			})
			return err
		}))
		if err := runRanksWithin(t, 1, func(int) error { return wait() })[0]; err != nil {
			t.Errorf("router: %v", err)
		}
	})
}
