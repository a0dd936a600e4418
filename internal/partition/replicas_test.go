package partition

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/distributedne/dne/internal/graph"
)

// TestReplicaIndexMatchesOwners checks ReplicaIndex against the owners
// directly, with more than 64 partitions, isolated vertices and unassigned
// edges.
func TestReplicaIndexMatchesOwners(t *testing.T) {
	const n, parts = 300, 70
	rng := rand.New(rand.NewSource(1))
	var edges []graph.Edge
	for i := 0; i < 2000; i++ {
		u, v := graph.Vertex(rng.Intn(n-20)), graph.Vertex(rng.Intn(n-20))
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	g := graph.FromEdges(n, edges)
	p := New(parts, g.NumEdges())
	for i := range p.Owner {
		if rng.Intn(10) > 0 {
			p.Owner[i] = int32(rng.Intn(parts))
		}
	}
	holds := make([]map[graph.Vertex]bool, parts)
	for q := range holds {
		holds[q] = map[graph.Vertex]bool{}
	}
	for i, o := range p.Owner {
		if o != None {
			e := g.Edge(int64(i))
			holds[o][e.U], holds[o][e.V] = true, true
		}
	}

	verts := make([][]graph.Vertex, parts)
	for q := range verts {
		for v := graph.Vertex(0); v < g.NumVertices(); v++ {
			if holds[q][v] {
				verts[q] = append(verts[q], v)
			}
		}
	}

	ri := NewReplicaIndex(g.NumVertices(), verts)
	if got, want := int64(len(ri.parts)), p.Measure(g).Replicas; got != want {
		t.Fatalf("index holds %d replicas, Measure's replicas = %d", got, want)
	}
	for v := graph.Vertex(0); v < g.NumVertices(); v++ {
		ps, slots := ri.Of(v)
		var want []int32
		for q := range holds {
			if holds[q][v] {
				want = append(want, int32(q))
			}
		}
		if !slices.Equal(ps, want) {
			t.Fatalf("vertex %d: partitions %v, want %v", v, ps, want)
		}
		for i, q := range ps {
			if verts[q][slots[i]] != v {
				t.Fatalf("vertex %d: slot %d in partition %d holds %d", v, slots[i], q, verts[q][slots[i]])
			}
		}
	}
}
