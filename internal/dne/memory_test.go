package dne

import (
	"runtime/metrics"
	"testing"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

// TestSparseIDsMemoryFollowsEdges runs PartitionShards at P = 16 on about
// 16 k edges whose endpoints are spread over 2^21 ids: RMAT 11 with every id
// multiplied by 2^10, which keeps the stripes ascending. No per-machine array
// may be sized by the id range. Every rank's accounted peak is linear in its
// local edges, and the whole run allocates a few MiB (6.5 on linux/amd64);
// slabs of 20 B per global id on each of the 16 machines would allocate
// about 670 MB.
func TestSparseIDsMemoryFollowsEdges(t *testing.T) {
	const p, spread = 16, 10
	g := gen.RMAT(11, 10, 9)
	cfg := DefaultConfig()
	cfg.Seed = 9
	shards := graph.ShardsOf(g, p)
	gd := newGrid(p)
	local := make([]int64, p)
	for _, s := range shards {
		s.NumVertices = g.NumVertices() << spread
		for i, k := range s.Packed {
			k = k>>32<<(32+spread) | uint64(uint32(k))<<spread
			s.Packed[i] = k
			local[gd.edgeOwner(uint32(k>>32), uint32(k))]++
		}
	}

	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(allocs)
	before := allocs[0].Value.Uint64()
	res, stats := runShardCluster(t, shards, cfg)
	metrics.Read(allocs)
	allocated := allocs[0].Value.Uint64() - before

	if res.NumEdges() != g.NumEdges() {
		t.Fatalf("collected %d edges, graph has %d", res.NumEdges(), g.NumEdges())
	}
	t.Logf("|E| = %d over %d ids: the run allocated %.2f MiB", g.NumEdges(), shards[0].NumVertices, float64(allocated)/(1<<20))
	const perEdge, fixed = 128, 16 << 10
	for rank, st := range stats {
		if limit := perEdge*local[rank] + fixed; st.MemBytes > limit {
			t.Errorf("rank %d: accounted peak %d B for %d local edges, want at most %d B/edge + %d B = %d B",
				rank, st.MemBytes, local[rank], perEdge, fixed, limit)
		}
	}
	if allocated > 16<<20 {
		t.Errorf("the run allocated %d B, want at most 16 MiB", allocated)
	}
}
