package dne

import (
	"context"
	"slices"
	"sync"
	"testing"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// hashShards splits g's edges into p shards the way gengraph does: routed
// by an endpoint-independent hash, unsorted relative to grid ownership, and
// with some duplicated edges — the raw-stream shape PartitionShards must
// digest (the shuffle dedups at the owner).
func hashShards(g *graph.Graph, p int) []*graph.Shard {
	shards := make([]*graph.Shard, p)
	for r := range shards {
		shards[r] = &graph.Shard{NumVertices: g.NumVertices()}
	}
	for i, e := range g.Edges() {
		k := graph.PackEdge(e.U, e.V)
		r := int((k * 0x9e3779b97f4a7c15 >> 33) % uint64(p))
		shards[r].Packed = append(shards[r].Packed, k)
		if i%17 == 0 { // duplicate ~6% of edges into a different shard
			shards[(r+1)%p].Packed = append(shards[(r+1)%p].Packed, k)
		}
	}
	return shards
}

func runShardCluster(t testing.TB, shards []*graph.Shard, cfg Config) (*ShardResult, []*MachineStats) {
	t.Helper()
	p := len(shards)
	c := cluster.New(p)
	var mu sync.Mutex
	var root *ShardResult
	stats := make([]*MachineStats, p)
	err := c.Run(func(comm cluster.Comm) error {
		res, st, err := PartitionShards(context.Background(), comm, shards[comm.Rank()], cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		stats[comm.Rank()] = st
		if res != nil {
			root = res
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if root == nil {
		t.Fatal("rank 0 returned no result")
	}
	return root, stats
}

func TestPartitionShardsMatchesWholeGraphRun(t *testing.T) {
	// Shard-based DNE over hash-routed, duplicated shards must reproduce
	// the in-process partitioning of the graph bit for bit: same edges in
	// canonical order, same owners, for square and non-square grids.
	g := gen.RMAT(10, 8, 7)
	for _, p := range []int{2, 5, 9} {
		cfg := DefaultConfig()
		cfg.Seed = 11
		want, err := runDNE(g, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := runShardCluster(t, hashShards(g, p), cfg)
		if res.NumEdges() != g.NumEdges() {
			t.Fatalf("p=%d: %d edges collected, graph has %d", p, res.NumEdges(), g.NumEdges())
		}
		for i, e := range g.Edges() {
			if res.Keys[i] != graph.PackEdge(e.U, e.V) {
				t.Fatalf("p=%d: edge %d key mismatch", p, i)
			}
		}
		if !slices.Equal(res.Owner, want.Partitioning.Owner) {
			t.Fatalf("p=%d: shard-based owners differ from in-process owners", p)
		}
		if res.Checksum() != partition.Checksum(want.Partitioning.Owner) {
			t.Fatalf("p=%d: checksum mismatch", p)
		}
	}
}

func TestPartitionShardsUnevenAndEmptyShards(t *testing.T) {
	// All edges concentrated in one shard, every other rank empty: the
	// shuffle must redistribute and the result must still match.
	g := gen.RMAT(9, 8, 3)
	const p = 4
	cfg := DefaultConfig()
	cfg.Seed = 2
	want, err := runDNE(g, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*graph.Shard, p)
	for r := range shards {
		shards[r] = &graph.Shard{NumVertices: g.NumVertices()}
	}
	for _, e := range g.Edges() {
		shards[3].Packed = append(shards[3].Packed, graph.PackEdge(e.U, e.V))
	}
	res, _ := runShardCluster(t, shards, cfg)
	if !slices.Equal(res.Owner, want.Partitioning.Owner) {
		t.Fatal("owners differ with concentrated shards")
	}
	bal := res.EdgeBalance()
	if bal <= 0 {
		t.Fatalf("EdgeBalance = %v", bal)
	}
}

// runShardTCP runs PartitionShards with one goroutine per rank, each holding
// a real TCPNode through a loopback router, and returns rank 0's result and
// every rank's stats.
func runShardTCP(tb testing.TB, shards []*graph.Shard, cfg Config) (*ShardResult, []*MachineStats) {
	tb.Helper()
	parts := len(shards)
	addr, wait, err := cluster.StartRouter("127.0.0.1:0", parts)
	if err != nil {
		tb.Fatal(err)
	}
	results := make([]*ShardResult, parts)
	stats := make([]*MachineStats, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for rank := 0; rank < parts; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			node, err := cluster.DialTCP(addr, rank, parts)
			if err != nil {
				errs[rank] = err
				return
			}
			results[rank], stats[rank], err = PartitionShards(context.Background(), node, shards[rank], cfg)
			if err != nil {
				node.Abort()
				errs[rank] = err
				return
			}
			errs[rank] = node.Close()
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			tb.Fatalf("rank %d: %v", rank, err)
		}
	}
	if err := wait(); err != nil {
		tb.Fatal(err)
	}
	if results[0] == nil {
		tb.Fatal("rank 0 returned no result")
	}
	return results[0], stats
}

func TestPartitionShardsOverTCPMatchesInProcess(t *testing.T) {
	// The acceptance path: a TCP run over hash-routed, duplicated shards must
	// produce the identical partitioning (same checksum, same superstep
	// count) as the in-process run — body codecs, framing, write coalescing,
	// the router and the chunked shuffle included — on a square grid and a
	// non-square one.
	g := gen.RMAT(12, 8, 5)
	for _, parts := range []int{4, 6} {
		cfg := DefaultConfig()
		cfg.Seed = 17
		inproc, err := runDNE(g, parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		root, stats := runShardTCP(t, hashShards(g, parts), cfg)
		if got, want := root.Checksum(), partition.Checksum(inproc.Partitioning.Owner); got != want {
			t.Errorf("P=%d: TCP shard run checksum %#x != in-process %#x", parts, got, want)
		}
		if stats[0].Iterations != inproc.Iterations {
			t.Errorf("P=%d: %d supersteps over TCP, %d in process", parts, stats[0].Iterations, inproc.Iterations)
		}
	}
}

func TestPartitionShardsRejectsBadConfig(t *testing.T) {
	c := cluster.New(2)
	shard := func() *graph.Shard {
		return &graph.Shard{NumVertices: 4, Packed: []uint64{graph.PackEdge(0, 1)}}
	}
	bad := DefaultConfig()
	bad.Alpha = 0.5
	err := c.Run(func(comm cluster.Comm) error {
		_, _, err := PartitionShards(context.Background(), comm, shard(), bad)
		return err
	})
	if err == nil {
		t.Error("alpha < 1 accepted")
	}
	// Empty shards everywhere: a collective error, not a hang.
	c = cluster.New(2)
	err = c.Run(func(comm cluster.Comm) error {
		_, _, err := PartitionShards(context.Background(), comm,
			&graph.Shard{NumVertices: 4}, DefaultConfig())
		return err
	})
	if err == nil {
		t.Error("empty shards accepted")
	}
}

// TestShardDataPlaneMemoryScaling is the headline memory claim of the
// sharded data plane: on the seeded 1M-edge RMAT at P=16, the per-rank peak
// allocation of shard-based DNE must be at most 1/4 of what any rank that
// held the whole graph would need for the graph alone, while the
// partitioning stays bit-identical to the in-process run. The shard path
// peaks at the shuffle and then runs on the received subgraph alone.
func TestShardDataPlaneMemoryScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("short: 1M-edge RMAT")
	}
	g := gen.RMAT(16, 16, 42)
	const p = 16
	cfg := DefaultConfig()
	cfg.Seed = 42

	res, shardStats := runShardCluster(t, graph.ShardsOf(g, p), cfg)
	want, err := runDNE(g, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Owner, want.Partitioning.Owner) {
		t.Fatal("shard-based and in-process partitionings differ")
	}
	var shardPeak int64
	for _, st := range shardStats {
		shardPeak = max(shardPeak, st.MemBytes)
	}
	whole := g.MemoryFootprint()
	t.Logf("per-rank peak at P=%d on |E|=%d: shard path %.1f MiB, resident graph %.1f MiB (%.2fx)",
		p, g.NumEdges(), float64(shardPeak)/(1<<20), float64(whole)/(1<<20),
		float64(whole)/float64(shardPeak))
	if shardPeak <= 0 {
		t.Fatalf("missing accounting: shard peak %d", shardPeak)
	}
	if 4*shardPeak > whole {
		t.Errorf("shard-path peak %d B not <= 1/4 of the resident graph's %d B", shardPeak, whole)
	}
}

// BenchmarkPartitionShards measures the full shard data plane (shuffle +
// expansion) in process at P=16. Like the TCP benchmark below it reports the
// superstep count and the edge balance next to ns/op, so that a change of
// either shows without the e2e harness.
func BenchmarkPartitionShards(b *testing.B) {
	g := gen.RMAT(14, 16, 21)
	const p = 16
	cfg := DefaultConfig()
	cfg.Seed = 21
	b.ReportAllocs()
	b.ResetTimer()
	var root *ShardResult
	var stats []*MachineStats
	for i := 0; i < b.N; i++ {
		root, stats = runShardCluster(b, graph.ShardsOf(g, p), cfg)
	}
	b.ReportMetric(float64(stats[0].Iterations), "supersteps")
	b.ReportMetric(root.EdgeBalance(), "edge_balance")
}

// BenchmarkPartitionShardsTCP is the deployed path without the e2e harness:
// 4 ranks over the loopback router, shuffle and expansion included.
func BenchmarkPartitionShardsTCP(b *testing.B) {
	g := gen.RMAT(16, 16, 42)
	const p = 4
	cfg := DefaultConfig()
	cfg.Seed = 42
	b.ReportAllocs()
	b.ResetTimer()
	var root *ShardResult
	var stats []*MachineStats
	for i := 0; i < b.N; i++ {
		root, stats = runShardTCP(b, graph.ShardsOf(g, p), cfg)
	}
	b.ReportMetric(float64(stats[0].Iterations), "supersteps")
	b.ReportMetric(root.EdgeBalance(), "edge_balance")
}
