package store

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

// saveDir writes st into a fresh temporary directory and returns it.
func saveDir(t testing.TB, st *Store) string {
	t.Helper()
	dir := t.TempDir()
	if err := WriteDir(dir, st); err != nil {
		t.Fatal(err)
	}
	return dir
}

// storeDiff reports the first way got differs from want — |V|, |E|, a
// or a shard's CSR — or nil when they are identical.
func storeDiff(want, got *Store) error {
	if want.numVertices != got.numVertices || want.numEdges != got.numEdges || len(want.shards) != len(got.shards) {
		return fmt.Errorf("shape (|V| %d, |E| %d, %d shards) vs (|V| %d, |E| %d, %d shards)",
			want.numVertices, want.numEdges, len(want.shards), got.numVertices, got.numEdges, len(got.shards))
	}
	for s, a := range want.shards {
		b := got.shards[s]
		if a.edges != b.edges || !slices.Equal(a.verts, b.verts) || !slices.Equal(a.off, b.off) || !slices.Equal(a.tgt, b.tgt) {
			return fmt.Errorf("shard %d CSR differs", s)
		}
	}
	return nil
}

// shardFiles returns the paths of the shard files in dir, sorted.
func shardFiles(t testing.TB, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.esz"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shard files in %s: %v", dir, err)
	}
	return paths
}

// rawShardFile encodes a one-chunk raw EShard file by hand, bypassing the
// writer's checks, so a test can hand the reader edges no writer emits.
func rawShardFile(n, index, count uint32, keys ...uint64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, 0x45534831) // "ESH1"
	for _, x := range []uint32{1, n, index, count} {
		b = binary.LittleEndian.AppendUint32(b, x)
	}
	b = binary.LittleEndian.AppendUint64(b, ^uint64(0)) // streamed: count in the footer
	if len(keys) > 0 {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(keys)))
		for _, k := range keys {
			b = binary.LittleEndian.AppendUint64(b, k)
		}
	}
	b = binary.LittleEndian.AppendUint32(b, 0)
	return binary.LittleEndian.AppendUint64(b, uint64(len(keys)))
}

// readFiles writes each byte string as one shard file of a fresh directory
// and restores the directory.
func readFiles(t testing.TB, files ...[]byte) (*Store, error) {
	t.Helper()
	dir := t.TempDir()
	for i, b := range files {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("f%d.esh", i)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return ReadDir(dir)
}

func TestSnapshotRoundTrip(t *testing.T) {
	for name, g := range testGraphs(t) {
		orig := buildRandom(t, g, 5, 21)
		got, err := ReadDir(saveDir(t, orig))
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if err := storeDiff(orig, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.replicas.Total() != orig.replicas.Total() {
			t.Fatalf("%s: replicas %d != %d", name, got.replicas.Total(), orig.replicas.Total())
		}
		// Traversals agree after restore.
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 5; trial++ {
			src := graph.Vertex(rng.Intn(int(g.NumVertices())))
			a, err := orig.KHop(context.Background(), src, 3)
			if err != nil {
				t.Fatal(err)
			}
			b, err := got.KHop(context.Background(), src, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(a.Vertices, b.Vertices) || !slices.Equal(a.Depths, b.Depths) || a.CrossShardHops != b.CrossShardHops {
				t.Fatalf("%s: khop diverged after round trip", name)
			}
		}
	}
}

// TestRestoreMatchesBuild: restoring the pinned store and a DNE store of
// RMAT 16 (edge factor 16, 16 shards) gives back the built store bit for
// bit, from at most 3 bytes per edge on disk.
func TestRestoreMatchesBuild(t *testing.T) {
	g := gen.RMAT(16, 16, 42)
	cfg := dne.DefaultConfig()
	cfg.Seed = 3
	res, err := dne.PartitionCtx(context.Background(), g, 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dneStore, err := BuildPartitioning(g, res.Partitioning)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Store{"pinned": pinnedStore(t), "dne rmat16": dneStore} {
		dir := saveDir(t, st)
		got, err := ReadDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := storeDiff(st, got); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		var bytes int64
		for _, p := range shardFiles(t, dir) {
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			bytes += fi.Size()
		}
		if perEdge := float64(bytes) / float64(st.NumEdges()); perEdge > 3 {
			t.Errorf("%s: %.2f B/edge on disk, want ≤ 3", name, perEdge)
		}
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := readFiles(t, []byte("definitely not a snapshot")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := readFiles(t, nil); err == nil {
		t.Error("empty file accepted")
	}
	if _, err := readFiles(t); err == nil {
		t.Error("empty directory accepted")
	}
	if _, err := ReadDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing directory accepted")
	}
}

func TestSnapshotRejectsTruncation(t *testing.T) {
	st := buildRandom(t, gen.ER(300, 1200, 3), 4, 3)
	dir := saveDir(t, st)
	paths := shardFiles(t, dir)
	full, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix of a shard file must error, never yield a store.
	for _, cut := range []int{0, 1, 10, 27, 28, 100, len(full) / 2, len(full) - 1} {
		if err := os.WriteFile(paths[1], full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadDir(dir); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// So must a directory missing a whole shard.
	if err := os.Remove(paths[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); err == nil {
		t.Error("missing shard accepted")
	}
}

// corruptAt restores a 4-shard store after mutate has rewritten the bytes
// of its shard 0 file.
func corruptAt(t *testing.T, mutate func(b []byte)) error {
	t.Helper()
	dir := saveDir(t, buildRandom(t, gen.ER(100, 400, 8), 4, 8))
	path := shardFiles(t, dir)[0]
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutate(b)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ReadDir(dir)
	return err
}

func TestSnapshotRejectsCorruptHeader(t *testing.T) {
	// The header: magic, version, |V|, index, count (u32 each), edges (u64).
	cases := map[string]func(b []byte){
		"bad magic":      func(b []byte) { b[0] = 'X' },
		"bad version":    func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 99) },
		"other |V|":      func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 101) },
		"too few ids":    func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 2) },
		"index repeated": func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 1) },
		"index range":    func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 4) },
		"zero shards":    func(b []byte) { binary.LittleEndian.PutUint32(b[16:], 0) },
		"huge shards":    func(b []byte) { binary.LittleEndian.PutUint32(b[16:], 1<<31-1) },
		// Hostile edge count: the reader must fail on the count mismatch,
		// not allocate per the header.
		"huge edges": func(b []byte) { binary.LittleEndian.PutUint64(b[20:], 1<<40) },
	}
	for name, mutate := range cases {
		if err := corruptAt(t, mutate); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSnapshotRejectsHostileVertexCount(t *testing.T) {
	// A header that claims 2^32-1 vertices over one edge must fail the
	// vertex claim without sizing anything by it.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFiles(t, rawShardFile(1<<32-1, 0, 1, graph.PackEdge(0, 1)))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("hostile vertex count accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("rejecting the claim allocated %d bytes", alloc)
	}
}

// inconsistentShards are well-framed one-file directories whose edges no
// builder emits: every count and id is in range, only the edges are wrong.
func inconsistentShards() map[string][]byte {
	return map[string][]byte{
		"self-loop":        rawShardFile(2, 0, 1, graph.PackEdge(0, 0), graph.PackEdge(0, 1)),
		"duplicate-edge":   rawShardFile(2, 0, 1, graph.PackEdge(0, 1), graph.PackEdge(0, 1)),
		"unsorted-targets": rawShardFile(3, 0, 1, graph.PackEdge(0, 2), graph.PackEdge(0, 1)),
	}
}

// TestSnapshotRejectsInconsistentAdjacency: a shard whose edges are not
// canonical, strictly increasing and unique is refused, not served.
func TestSnapshotRejectsInconsistentAdjacency(t *testing.T) {
	if _, err := readFiles(t, rawShardFile(3, 0, 1, graph.PackEdge(0, 1), graph.PackEdge(0, 2))); err != nil {
		t.Fatalf("a valid hand-encoded shard refused: %v", err)
	}
	for name, b := range inconsistentShards() {
		if _, err := readFiles(t, b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
