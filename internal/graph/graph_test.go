package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestFromEdgesDedupAndCanon(t *testing.T) {
	g := FromEdges(0, []Edge{
		{1, 2}, {2, 1}, {1, 2}, // duplicates in both orders
		{3, 3}, // self loop dropped
		{0, 4},
	})
	if g.NumVertices() != 5 {
		t.Errorf("NumVertices = %d, want 5", g.NumVertices())
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	for _, e := range g.Edges() {
		if e.U > e.V {
			t.Errorf("edge %v not canonical", e)
		}
	}
}

func TestFromEdgesExplicitVertexCount(t *testing.T) {
	g := FromEdges(10, []Edge{{0, 1}})
	if g.NumVertices() != 10 {
		t.Errorf("NumVertices = %d, want 10", g.NumVertices())
	}
	if g.Degree(9) != 0 {
		t.Errorf("isolated vertex degree = %d", g.Degree(9))
	}
}

func TestCSRConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var raw []Edge
	for i := 0; i < 500; i++ {
		raw = append(raw, Edge{uint32(rng.Intn(50)), uint32(rng.Intn(50))})
	}
	g := FromEdges(50, raw)
	// Sum of degrees must equal 2|E|.
	var degSum int64
	for v := uint32(0); v < g.NumVertices(); v++ {
		degSum += g.Degree(v)
	}
	if degSum != 2*g.NumEdges() {
		t.Errorf("degree sum %d != 2|E| %d", degSum, 2*g.NumEdges())
	}
	// Every adjacency slot must reference an edge containing both endpoints.
	for v := uint32(0); v < g.NumVertices(); v++ {
		nb := g.Neighbors(v)
		ie := g.IncidentEdges(v)
		for s, u := range nb {
			e := g.Edge(int64(ie[s]))
			if e != (Edge{U: min(u, v), V: max(u, v)}) {
				t.Fatalf("adjacency slot %d of %d inconsistent: %v vs neighbor %d", s, v, e, u)
			}
		}
	}
}

func TestDegreesAndMax(t *testing.T) {
	g := FromEdges(0, []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}})
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d, want 3", g.MaxDegree())
	}
	want := []int64{3, 2, 2, 1}
	if got := g.Degrees(); !reflect.DeepEqual(got, want) {
		t.Errorf("Degrees = %v, want %v", got, want)
	}
	if g.AvgDegree() != 2 {
		t.Errorf("AvgDegree = %f, want 2", g.AvgDegree())
	}
}

// TestWriteEdgeListMatchesFprintf pins the fast AppendUint formatting to
// the exact bytes the old Fprintf produced.
func TestWriteEdgeListMatchesFprintf(t *testing.T) {
	g := FromEdges(0, []Edge{{0, 1}, {7, 2}, {1048576, 123456789}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	want := "0 1\n2 7\n1048576 123456789\n"
	if buf.String() != want {
		t.Errorf("WriteEdgeList = %q, want %q", buf.String(), want)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := FromEdges(0, []Edge{{0, 1}, {1, 2}, {0, 5}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
		t.Errorf("round trip mismatch: %v vs %v", g.Edges(), g2.Edges())
	}
}

func TestReadEdgeListCommentsAndErrors(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# comment\n% other\n1 2\n\n3 4 extra-ok\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	if _, err := ReadEdgeList(strings.NewReader("1\n")); err == nil {
		t.Error("want error for short line")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Error("want error for non-numeric line")
	}
}

func TestQuickCanonicalisationInvariant(t *testing.T) {
	// Property: for any edge multiset, FromEdges yields sorted, unique,
	// canonical, self-loop-free edges covering the same vertex pairs.
	f := func(pairs []struct{ U, V uint16 }) bool {
		raw := make([]Edge, 0, len(pairs))
		want := map[Edge]bool{}
		for _, p := range pairs {
			e := Edge{uint32(p.U), uint32(p.V)}
			raw = append(raw, e)
			if p.U != p.V {
				want[e.Canon()] = true
			}
		}
		g := FromEdges(0, raw)
		if int(g.NumEdges()) != len(want) {
			return false
		}
		prev := Edge{}
		for i, e := range g.Edges() {
			if e.U > e.V || !want[e] {
				return false
			}
			if i > 0 && !lessEdge(prev, e) {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func lessEdge(a, b Edge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

func TestNeighborsSorted(t *testing.T) {
	// CSR fills adjacency in edge-sorted order, so each vertex's neighbor
	// list arrives grouped; verify lookup correctness rather than order.
	g := FromEdges(0, []Edge{{2, 0}, {0, 1}, {2, 1}})
	nb := append([]Vertex(nil), g.Neighbors(2)...)
	sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	if !reflect.DeepEqual(nb, []Vertex{0, 1}) {
		t.Errorf("Neighbors(2) = %v", nb)
	}
}
