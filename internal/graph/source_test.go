package graph

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// drain pulls a full pass from a source, returning (keys, positions).
// Sequential chunks get synthesized positions, as consumers do.
func drain(t *testing.T, src Source) ([]uint64, []int64) {
	t.Helper()
	es, err := src.Edges()
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	var keys []uint64
	var poss []int64
	var seq int64
	for {
		chunk, pos, err := es.Next()
		if err == io.EOF {
			return keys, poss
		}
		if err != nil {
			t.Fatal(err)
		}
		for j, k := range chunk {
			keys = append(keys, k)
			if pos != nil {
				poss = append(poss, pos[j])
			} else {
				poss = append(poss, seq+int64(j))
			}
		}
		seq += int64(len(chunk))
	}
}

func testSourceGraph() *Graph {
	edges := make([]Edge, 0, 4096)
	for i := uint32(0); i < 1024; i++ {
		edges = append(edges, Edge{i, i + 1}, Edge{i, (i*7 + 3) % 2048}, Edge{i % 5, i + 2})
	}
	return FromEdges(2049, edges)
}

// TestSourceOfReplaysCanonicalList: the graph-backed source yields exactly
// the canonical edge list, with sequential positions, on every pass.
func TestSourceOfReplaysCanonicalList(t *testing.T) {
	g := testSourceGraph()
	src := SourceOf(g)
	info := src.Info()
	if info.NumVertices != g.NumVertices() || info.NumEdges != g.NumEdges() {
		t.Fatalf("info %+v does not match graph %v", info, g)
	}
	for pass := 0; pass < 2; pass++ {
		keys, poss := drain(t, src)
		if int64(len(keys)) != g.NumEdges() {
			t.Fatalf("pass %d: %d keys, want %d", pass, len(keys), g.NumEdges())
		}
		for i, k := range keys {
			if e := g.Edge(int64(i)); k != PackEdge(e.U, e.V) || poss[i] != int64(i) {
				t.Fatalf("pass %d: edge %d mismatch", pass, i)
			}
		}
	}
}

// TestDirSourceMatchesGraphSource: canonical shard stripes read back in
// shard-index order replay the same sequence as the graph source, and the
// directory's hints are exact.
func TestDirSourceMatchesGraphSource(t *testing.T) {
	g := testSourceGraph()
	dir := t.TempDir()
	const count = 3
	for i, sh := range ShardsOf(g, count) {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("shard-%04d-of-%04d.esh", i, count)))
		if err != nil {
			t.Fatal(err)
		}
		if err := writeShard(f, sh, uint32(i), uint32(count)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	src, err := DirSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	info := src.Info()
	if info.NumVertices != g.NumVertices() || info.NumEdges != g.NumEdges() {
		t.Fatalf("dir info %+v does not match graph %v", info, g)
	}
	want, _ := drain(t, SourceOf(g))
	got, _ := drain(t, src)
	if len(got) != len(want) {
		t.Fatalf("dir source yields %d edges, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("edge %d: dir %#x != graph %#x", i, got[i], want[i])
		}
	}
}

// TestFromSourceRoundTrip: materializing any canonical source reproduces
// the original graph.
func TestFromSourceRoundTrip(t *testing.T) {
	g := testSourceGraph()
	back, err := FromSource(SourceOf(g), nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip %v != %v", back, g)
	}
	for i, e := range back.Edges() {
		if e != g.Edge(int64(i)) {
			t.Fatalf("edge %d differs", i)
		}
	}
}

// TestSourceCountsMatchesHints: the counting pass agrees exactly with the
// hints of a hinted source, so hint presence cannot change behavior. The
// graph's |V| is inferred from its edges — a counting pass can only see
// endpoints, so a trailing isolated vertex would (correctly) be invisible
// to it.
func TestSourceCountsMatchesHints(t *testing.T) {
	g := FromEdges(0, testSourceGraph().Edges())
	src := SourceOf(g)
	v1, e1, err := SourceCounts(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An identical source with the hints withheld.
	blind := hintlessSource{src}
	v2, e2, err := SourceCounts(blind, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 || e1 != e2 {
		t.Fatalf("hinted (%d,%d) != counted (%d,%d)", v1, e1, v2, e2)
	}
}

type hintlessSource struct{ Source }

func (s hintlessSource) Info() SourceInfo { return SourceInfo{Name: "blind"} }

// TestShuffledIsDeterministicPermutation: the shuffle decorator emits a
// permutation of the raw stream — every raw position exactly once, keys
// matching their positions — identically on every pass and across sources
// replaying the same sequence, and differently for different seeds.
func TestShuffledIsDeterministicPermutation(t *testing.T) {
	g := testSourceGraph()
	raw, _ := drain(t, SourceOf(g))
	sh := Shuffled(SourceOf(g), 7)
	if RawSource(sh).Info() != SourceOf(g).Info() {
		t.Fatal("RawSource did not unwrap to the graph source")
	}
	keys1, pos1 := drain(t, sh)
	keys2, pos2 := drain(t, sh)
	if len(keys1) != len(raw) {
		t.Fatalf("shuffle yields %d edges, want %d", len(keys1), len(raw))
	}
	seen := make([]bool, len(raw))
	ordered := true
	for i := range keys1 {
		p := pos1[i]
		if p < 0 || p >= int64(len(raw)) || seen[p] {
			t.Fatalf("position %d out of range or repeated", p)
		}
		seen[p] = true
		if keys1[i] != raw[p] {
			t.Fatalf("edge at shuffled index %d does not match raw position %d", i, p)
		}
		if p != int64(i) {
			ordered = false
		}
		if keys1[i] != keys2[i] || pos1[i] != pos2[i] {
			t.Fatalf("pass 2 differs at %d", i)
		}
	}
	if ordered {
		t.Fatal("shuffle left the stream in raw order")
	}
	// A different seed must give a different order.
	keysB, _ := drain(t, Shuffled(SourceOf(g), 8))
	same := true
	for i := range keysB {
		if keysB[i] != keys1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 shuffled identically")
	}
}
