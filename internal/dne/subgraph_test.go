package dne

import (
	"testing"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

// gridBuckets splits g's canonical edges by owning machine: the sorted
// packed keys the shuffle would deliver to each rank.
func gridBuckets(g *graph.Graph, gd grid, p int) [][]uint64 {
	buckets := make([][]uint64, p)
	for _, e := range g.Edges() {
		r := gd.edgeOwner(e.U, e.V)
		buckets[r] = append(buckets[r], graph.PackEdge(e.U, e.V))
	}
	return buckets
}

// TestSubGraphLocalIDDense spot-checks the dense global→local map against
// the sorted verts slice it is derived from.
func TestSubGraphLocalIDDense(t *testing.T) {
	g := gen.RMAT(10, 6, 3)
	sg := buildSubGraphPacked(g.NumVertices(), 4, gridBuckets(g, newGrid(4), 4)[2])
	for lv, v := range sg.verts {
		if got := sg.lid[v]; got != int32(lv) {
			t.Fatalf("lid[%d] = %d, want %d", v, got, lv)
		}
	}
	seen := make(map[graph.Vertex]bool, len(sg.verts))
	for _, v := range sg.verts {
		seen[v] = true
	}
	for v := graph.Vertex(0); v < g.NumVertices(); v++ {
		if !seen[v] && sg.lid[v] != -1 {
			t.Fatalf("lid[%d] = %d for non-local vertex", v, sg.lid[v])
		}
	}
}

// BenchmarkBuildSubGraphPacked measures the shard data plane's build: the
// packed-edge subgraph materialization for all 16 machines (the shuffle's
// routing/exchange is benchmarked separately by BenchmarkPartitionShards).
func BenchmarkBuildSubGraphPacked(b *testing.B) {
	g := gen.RMAT(14, 16, 21)
	const p = 16
	packed := gridBuckets(g, newGrid(p), p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for rank := 0; rank < p; rank++ {
			sg := buildSubGraphPacked(g.NumVertices(), p, packed[rank])
			if len(sg.keys) == 0 {
				b.Fatal("empty subgraph")
			}
		}
	}
}
