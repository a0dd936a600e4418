package dne

import (
	"math/rand"
	"slices"
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

// TestSubGraphLocalIDDense checks the vertex table against the local edges:
// the local vertices are exactly their endpoints, hold the dense compact ids
// [0, nLocal) in ascending global order, and every other vertex is absent.
func TestSubGraphLocalIDDense(t *testing.T) {
	g := gen.RMAT(10, 6, 3)
	packed := gridBuckets(g, newGrid(4), 4)[2]
	sg := buildSubGraphPacked(4, packed)
	var want []graph.Vertex
	for _, k := range packed {
		want = append(want, graph.Vertex(k>>32), graph.Vertex(k))
	}
	slices.Sort(want)
	want = slices.Compact(want)
	if !slices.Equal(sg.vt.ids, want) || int(sg.nLocal) != len(want) {
		t.Fatalf("local vertices %d (nLocal %d), want the %d endpoints ascending", len(sg.vt.ids), sg.nLocal, len(want))
	}
	for v := graph.Vertex(0); v < g.NumVertices(); v++ {
		lv, isLocal := slices.BinarySearch(want, v)
		if !isLocal {
			lv = -1
		}
		if got := sg.local(v); got != int32(lv) {
			t.Fatalf("local(%d) = %d, want %d", v, got, lv)
		}
	}
}

// TestVertexTableAppendsRemoteIDs checks the table past the local vertices:
// remote ids are appended in first-touch order, found again at the same
// compact id across rehashes, and never read as local vertices.
func TestVertexTableAppendsRemoteIDs(t *testing.T) {
	sg := buildSubGraphPacked(4, []uint64{graph.PackEdge(7, 9), graph.PackEdge(9, 1<<30)})
	if sg.nLocal != 3 || sg.local(7) != 0 || sg.local(9) != 1 || sg.local(1<<30) != 2 {
		t.Fatalf("local ids %v (nLocal %d), want [7 9 2^30] as 0, 1, 2", sg.vt.ids, sg.nLocal)
	}
	const remote = 1000
	for i := 0; i < remote; i++ {
		v := graph.Vertex(i*7919 + 11)
		if c := sg.vt.insert(v); c != sg.nLocal+int32(i) {
			t.Fatalf("remote vertex %d got compact id %d, want %d", v, c, sg.nLocal+int32(i))
		}
	}
	for i := 0; i < remote; i++ {
		v := graph.Vertex(i*7919 + 11)
		if c := sg.vt.insert(v); c != sg.nLocal+int32(i) || sg.local(v) != -1 {
			t.Fatalf("remote vertex %d: compact id %d, local id %d", v, c, sg.local(v))
		}
	}
	if n := len(sg.vt.slots); 4*len(sg.vt.ids) > 3*n || n&(n-1) != 0 {
		t.Fatalf("%d ids in %d slots: not a power of two at most three-quarters full", len(sg.vt.ids), n)
	}
}

// TestSortByHigh checks the table's radix sort against slices.Sort on words
// with distinct high halves, with and without high bytes that every word
// shares (the skipped passes).
func TestSortByHigh(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, span := range []int64{1 << 11, 1 << 20, 1 << 32} {
		seen := map[uint64]bool{}
		var words []uint64
		for len(words) < 1000 {
			hi := uint64(rng.Int63n(span))
			if !seen[hi] {
				seen[hi] = true
				words = append(words, hi<<32|uint64(len(words)))
			}
		}
		want := slices.Clone(words)
		slices.Sort(want)
		if got, _ := sortByHigh(words, make([]uint64, len(words))); !slices.Equal(got, want) {
			t.Fatalf("high halves below %d: sortByHigh disagrees with slices.Sort", span)
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
			sg := buildSubGraphPacked(p, packed[rank])
			if len(sg.keys) == 0 {
				b.Fatal("empty subgraph")
			}
		}
	}
}
