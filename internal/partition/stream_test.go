package partition

import (
	"context"
	"testing"

	"github.com/distributedne/dne/internal/graph"
)

func streamTestGraph() *graph.Graph {
	edges := make([]graph.Edge, 0, 3000)
	for i := uint32(0); i < 1000; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1}, graph.Edge{U: i % 7, V: i + 2})
	}
	return graph.FromEdges(0, edges)
}

// modCore assigns each edge by stream position modulo the partition count —
// order-independent, so it exercises the StreamRun plumbing in isolation.
func modCore(ctx context.Context, src graph.Source, spec Spec, st *Stats) (*Partitioning, error) {
	_, ne, err := Counts(ctx, src)
	if err != nil {
		return nil, err
	}
	p := New(spec.NumParts, ne)
	err = EachEdge(ctx, src, func(pos int64, k uint64) error {
		p.Owner[pos] = int32(pos % int64(spec.NumParts))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// TestStreamRunQualityMatchesMeasure: the stream-side quality measurement
// (no graph, |V|-slab) must equal Partitioning.Measure bit for bit on a
// canonical source, including partition counts that fill, cross and span
// several 64-bit slab words.
func TestStreamRunQualityMatchesMeasure(t *testing.T) {
	g := streamTestGraph()
	m := StreamMethod{Label: "mod", Core: modCore}
	for _, parts := range []int{1, 5, 63, 64, 65, 130} {
		res, err := m.Partition(context.Background(), g, NewSpec(parts, 3))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Partitioning.Validate(g); err != nil {
			t.Fatal(err)
		}
		if want := res.Partitioning.Measure(g); res.Quality != want {
			t.Fatalf("P=%d: stream quality %+v != Measure %+v", parts, res.Quality, want)
		}
		if res.Stats.PeakMemBytes <= g.MemoryFootprint() {
			t.Fatalf("P=%d: graph-path peak %d must include the resident graph (%d)",
				parts, res.Stats.PeakMemBytes, g.MemoryFootprint())
		}
	}
}

// TestMeasurePartialOwnersMatchesMap checks Measure on a multi-word
// partition count with unassigned edges against a per-vertex map tally:
// None owners are skipped, not counted.
func TestMeasurePartialOwnersMatchesMap(t *testing.T) {
	g := streamTestGraph()
	const parts = 130
	p := New(parts, g.NumEdges())
	for i := range p.Owner {
		if i%3 != 0 {
			p.Owner[i] = int32(i * 7 % parts)
		}
	}
	sets := map[graph.Vertex]map[int32]bool{}
	edgeCounts := make([]int64, parts)
	for i, o := range p.Owner {
		if o == None {
			continue
		}
		e := g.Edge(int64(i))
		for _, v := range []graph.Vertex{e.U, e.V} {
			if sets[v] == nil {
				sets[v] = map[int32]bool{}
			}
			sets[v][o] = true
		}
		edgeCounts[o]++
	}
	vertCounts := make([]int64, parts)
	var replicas int64
	for _, s := range sets {
		replicas += int64(len(s))
		for q := range s {
			vertCounts[q]++
		}
	}
	ratio := func(xs []int64) (float64, int64) {
		var sum, hi int64
		for _, x := range xs {
			sum += x
			hi = max(hi, x)
		}
		return float64(hi) / (float64(sum) / float64(len(xs))), hi
	}
	want := Quality{
		Replicas:          replicas,
		VertexCuts:        replicas - int64(len(sets)),
		ReplicationFactor: float64(replicas) / float64(g.NumVertices()),
	}
	want.EdgeBalance, want.MaxPartEdges = ratio(edgeCounts)
	want.VertexBalance, _ = ratio(vertCounts)
	if got := p.Measure(g); got != want {
		t.Fatalf("Measure %+v, map tally %+v", got, want)
	}
}

// TestStreamMethodShuffleKeepsIndexing: with Shuffle set, the core sees a
// permuted arrival order but the owner array stays indexed by raw stream
// position, and the measurement still validates.
func TestStreamMethodShuffleKeepsIndexing(t *testing.T) {
	g := streamTestGraph()
	sawOutOfOrder := false
	core := func(ctx context.Context, src graph.Source, spec Spec, st *Stats) (*Partitioning, error) {
		_, ne, err := Counts(ctx, src)
		if err != nil {
			return nil, err
		}
		p := New(spec.NumParts, ne)
		var prev int64 = -1
		err = EachEdge(ctx, src, func(pos int64, k uint64) error {
			if pos < prev {
				sawOutOfOrder = true
			}
			prev = pos
			// The decorated stream must still pair each key with its raw
			// position: verify against the canonical list.
			if e := g.Edge(pos); graph.PackEdge(e.U, e.V) != k {
				t.Fatalf("position %d carries wrong key", pos)
			}
			p.Owner[pos] = int32(pos % int64(spec.NumParts))
			return nil
		})
		if err != nil {
			return nil, err
		}
		return p, nil
	}
	m := StreamMethod{Label: "mod", Core: core, Shuffle: true}
	res, err := m.PartitionStream(context.Background(), graph.SourceOf(g), NewSpec(4, 9))
	if err != nil {
		t.Fatal(err)
	}
	if !sawOutOfOrder {
		t.Fatal("Shuffle did not permute the arrival order")
	}
	if err := res.Partitioning.Validate(g); err != nil {
		t.Fatal(err)
	}
	if want := res.Partitioning.Measure(g); res.Quality != want {
		t.Fatalf("stream quality %+v != Measure %+v", res.Quality, want)
	}
}
