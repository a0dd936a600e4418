package dne

import (
	"context"
	"sync"
	"testing"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// pinnedInput is the fixed input of the pinned tests: RMAT scale 12, edge
// factor 8, seed 3, partitioned 4 ways with seed 3 at the paper's α and λ.
func pinnedInput() (*graph.Graph, int, Config) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	return gen.RMAT(12, 8, 3), 4, cfg
}

// statsRow flattens the per-rank statistics a pinned test compares.
func statsRow(st *MachineStats) [6]int64 {
	return [6]int64{int64(st.Iterations), st.SweptEdges, st.MemBytes, st.PartEdges, st.CommBytes, st.CommMsgs}
}

// runCheckpointedCluster runs PartitionShardsFT on every rank of one
// in-process mesh with a checkpointer per rank and no fault, and returns
// rank 0's result and every rank's statistics.
func runCheckpointedCluster(t *testing.T, g *graph.Graph, parts int, cfg Config) (*ShardResult, []*MachineStats) {
	t.Helper()
	cl := cluster.New(parts)
	shards := graph.ShardsOf(g, parts)
	results := make([]*ShardResult, parts)
	stats := make([]*MachineStats, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for rank := 0; rank < parts; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ckpt, err := NewCheckpointer(t.TempDir(), rank, parts, 1, cfg)
			if err != nil {
				errs[rank] = err
				return
			}
			results[rank], stats[rank], errs[rank] = PartitionShardsFT(context.Background(), cfg, FTOptions{
				Checkpoint: ckpt,
				Connect:    func(context.Context) (cluster.Comm, error) { return cl.Node(rank), nil },
				LoadShard:  func() (*graph.Shard, error) { return shards[rank], nil },
			})
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return results[0], stats
}

// TestPinnedRunStats pins every statistic a DNE run reports on one seeded
// input, exactly: per rank (iterations, swept, memory, |Ep|, comm bytes, comm
// messages) from PartitionShards and from a checkpointed PartitionShardsFT
// run, whose traffic includes the resume negotiation, and the summed
// counters of PartitionCtx. They feed dne.supersteps, comm_mb, cluster.msgs,
// dne.swept_edges, dne.accounted_mem_bytes_per_edge and
// dne.wasted_selection_ratio of the benchmark, so a change to how a rank is
// driven must leave every one of them unchanged.
func TestPinnedRunStats(t *testing.T) {
	g, parts, cfg := pinnedInput()
	const wantSum = 0x431b60e822232cd7
	checkRanks := func(driver string, stats []*MachineStats, want [][6]int64) {
		t.Helper()
		for rank, st := range stats {
			if got := statsRow(st); got != want[rank] {
				t.Errorf("%s rank %d: iterations, swept, memory, |Ep|, comm bytes, comm messages = %v, want %v",
					driver, rank, got, want[rank])
			}
		}
	}

	res, stats := runShardCluster(t, graph.ShardsOf(g, parts), cfg)
	if got := res.Checksum(); got != wantSum {
		t.Errorf("PartitionShards checksum %#x, want %#x", got, uint64(wantSum))
	}
	checkRanks("PartitionShards", stats, [][6]int64{
		{35, 4, 354768, 7315, 84906, 330},
		{35, 4, 354368, 7271, 99266, 324},
		{35, 4, 318692, 5630, 97530, 324},
		{35, 4, 314264, 6383, 96714, 324},
	})

	whole, err := PartitionCtx(context.Background(), g, parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := partition.Checksum(whole.Partitioning.Owner); got != wantSum {
		t.Errorf("PartitionCtx checksum %#x, want %#x", got, uint64(wantSum))
	}
	got := [7]int64{int64(whole.Iterations), whole.CommBytes, whole.CommMessages, whole.MemBytes,
		whole.WastedSelections, whole.TotalSelections, whole.SweptEdges}
	if want := [7]int64{35, 378416, 1302, 1342092, 4982, 7458, 4}; got != want {
		t.Errorf("PartitionCtx iterations, comm bytes, comm messages, memory, wasted, selections, swept = %v, want %v", got, want)
	}

	// The resume negotiation adds one AllGatherMin: 3 messages and 72 bytes
	// at rank 0, 1 message and 24 bytes elsewhere.
	ftRes, ftStats := runCheckpointedCluster(t, g, parts, cfg)
	if got := ftRes.Checksum(); got != wantSum {
		t.Errorf("PartitionShardsFT checksum %#x, want %#x", got, uint64(wantSum))
	}
	checkRanks("PartitionShardsFT", ftStats, [][6]int64{
		{35, 4, 354768, 7315, 84978, 333},
		{35, 4, 354368, 7271, 99290, 325},
		{35, 4, 318692, 5630, 97554, 325},
		{35, 4, 314264, 6383, 96738, 325},
	})
}

// TestPinnedOwnersAcrossP pins the owners of one seeded input at four grid
// shapes: 1×3 and 8×9 are not square, 11×12 folds 132 cells onto 130
// machines, 72 and 130 need two and three partition-bitset words per vertex,
// and 4×4 is the grid the benchmark runs. A change to the superstep's data layout
// must leave every owner unchanged.
func TestPinnedOwnersAcrossP(t *testing.T) {
	g := gen.RMAT(13, 8, 5)
	cfg := DefaultConfig()
	cfg.Seed = 5
	for _, tc := range []struct {
		parts int
		want  uint64
	}{
		{3, 0xf5b05d4cbb36fde5},
		{16, 0xfb6e3d6540f67750},
		{72, 0xab60be7596dd9b8e},
		{130, 0x17e8701f9997b6ab},
	} {
		res, err := PartitionCtx(context.Background(), g, tc.parts, cfg)
		if err != nil {
			t.Fatalf("P=%d: %v", tc.parts, err)
		}
		if got := partition.Checksum(res.Partitioning.Owner); got != tc.want {
			t.Errorf("P=%d: checksum %#x, want %#x", tc.parts, got, tc.want)
		}
	}
}
