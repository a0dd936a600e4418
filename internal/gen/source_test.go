package gen

import (
	"io"
	"testing"

	"github.com/distributedne/dne/internal/graph"
)

func drainSource(t *testing.T, src graph.Source) []uint64 {
	t.Helper()
	es, err := src.Edges()
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	var keys []uint64
	for {
		chunk, _, err := es.Next()
		if err == io.EOF {
			return keys
		}
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, chunk...)
	}
}

// TestRMATSourceReplaysStream: the pull-style source yields exactly the
// StreamRMAT sample sequence (canonicalized, self loops dropped), the same
// on every pass, and materializes to the same graph as RMAT.
func TestRMATSourceReplaysStream(t *testing.T) {
	const scale, ef, seed = 10, 8, 5
	var want []uint64
	StreamRMAT(scale, ef, seed, func(u, v uint32) {
		if u != v {
			want = append(want, graph.PackEdge(u, v))
		}
	})
	src := RMATSource(scale, ef, seed)
	if src.Info().NumVertices != 1<<scale {
		t.Fatalf("info %+v", src.Info())
	}
	for pass := 0; pass < 2; pass++ {
		got := drainSource(t, src)
		if len(got) != len(want) {
			t.Fatalf("pass %d: %d samples, want %d", pass, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pass %d sample %d: %#x != %#x", pass, i, got[i], want[i])
			}
		}
	}
	g, err := graph.FromSource(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := RMAT(scale, ef, seed)
	if g.NumVertices() != ref.NumVertices() || g.NumEdges() != ref.NumEdges() {
		t.Fatalf("materialized %v != %v", g, ref)
	}
}
