package engine

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"github.com/distributedne/dne/internal/gen"
)

// TestPinnedEngineRun pins one analytics run exactly: RMAT scale 10, edge
// factor 8, DNE into 8 parts with seed 3. One FNV-64a digest covers the
// PageRank float bits (10 iterations), the WCC labels and the SSSP distances
// from vertex 0; CommBytes and Supersteps are pinned per app, and the
// per-part vertex and edge counts of the store shards the engine runs on
// pin its layout. They feed the benchmark's engine metrics and Table 5's
// COM column, so any change to how the engine is built or run must leave
// every one of them unchanged.
func TestPinnedEngineRun(t *testing.T) {
	g := gen.RMAT(10, 8, 3)
	e := buildEngine(t, g, "dne", 3, 8)

	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	var comm []int64
	var steps []int
	record := func() {
		comm = append(comm, e.CommBytes)
		steps = append(steps, e.Supersteps)
		e.ResetStats()
	}
	for _, x := range e.PageRank(10, 0.85) {
		put(math.Float64bits(x))
	}
	record()
	for _, l := range e.WCC() {
		put(uint64(l))
	}
	record()
	for _, d := range e.SSSP(0) {
		put(uint64(d))
	}
	record()

	if got, want := h.Sum64(), uint64(0xe69b695dd9b942b5); got != want {
		t.Errorf("PageRank/WCC/SSSP digest = %#x, want %#x", got, want)
	}
	if want := []int64{213840, 25032, 21300}; !slices.Equal(comm, want) {
		t.Errorf("CommBytes per app (pagerank, wcc, sssp) = %v, want %v", comm, want)
	}
	if want := []int{10, 4, 4}; !slices.Equal(steps, want) {
		t.Errorf("Supersteps per app (pagerank, wcc, sssp) = %v, want %v", steps, want)
	}
	var verts, edges []int
	for q := range e.parts {
		verts = append(verts, e.st.ShardVertices(q))
		edges = append(edges, int(e.st.ShardEdges(q)))
	}
	if want := []int{147, 288, 271, 180, 207, 233, 212, 143}; !slices.Equal(verts, want) {
		t.Errorf("per-part vertices = %v, want %v", verts, want)
	}
	if want := []int{839, 800, 838, 840, 397, 696, 841, 846}; !slices.Equal(edges, want) {
		t.Errorf("per-part edges = %v, want %v", edges, want)
	}
}
