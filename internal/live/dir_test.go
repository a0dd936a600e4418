package live

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
	"github.com/distributedne/dne/internal/store"
)

// The tests here hold a partitioned-graph directory, as Create writes it
// and Open serves it, to what persisting a store promises: a round trip
// gives back the built store, and a damaged or hostile directory is
// refused, never served or sized by.

// randomPartitioning puts each edge of g on a seeded random one of numParts
// partitions.
func randomPartitioning(g *graph.Graph, numParts int, seed int64) *partition.Partitioning {
	rng := rand.New(rand.NewSource(seed))
	p := partition.New(numParts, g.NumEdges())
	for i := range p.Owner {
		p.Owner[i] = int32(rng.Intn(numParts))
	}
	return p
}

// createDir writes the partitioning p of g into a fresh directory with
// Create and returns the directory, closed.
func createDir(t testing.TB, g *graph.Graph, p *partition.Partitioning) string {
	t.Helper()
	dir := t.TempDir()
	l, err := Create(dir, Config{}, g, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// openDiff opens dir and reports the first way the graph it serves differs
// from st, the store built from the same partitioning: the vertex range,
// the shard count, a shard's edges or a vertex's replicas.
func openDiff(t testing.TB, dir string, st *store.Store) error {
	t.Helper()
	l, err := Open(dir, Config{})
	if err != nil {
		return err
	}
	defer l.Close()
	ep, want := l.Epoch(), store.NewWriter(st).Epoch(0)
	if ep.NumVertices() != st.NumVertices() || ep.NumShards() != st.NumShards() {
		return fmt.Errorf("shape (|V| %d, %d shards) vs built (|V| %d, %d shards)",
			ep.NumVertices(), ep.NumShards(), st.NumVertices(), st.NumShards())
	}
	for s := range st.NumShards() {
		if !slices.Equal(ep.ShardEdgesPacked(s), want.ShardEdgesPacked(s)) {
			return fmt.Errorf("shard %d edges differ", s)
		}
	}
	for v := range st.NumVertices() {
		if !slices.Equal(ep.Replicas(v), st.Replicas(v)) {
			return fmt.Errorf("vertex %d replicas %v, built %v", v, ep.Replicas(v), st.Replicas(v))
		}
	}
	return nil
}

// bases returns the paths of dir's base files, sorted.
func bases(t testing.TB, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*."+kindBase))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bases in %s: %v", dir, err)
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

// openBase opens a one-partition directory whose base holds b.
func openBase(t testing.TB, b []byte) (*Live, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(runPath(dir, kindBase, 0, 1), b, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Config{})
	if err == nil {
		t.Cleanup(func() { l.Close() })
	}
	return l, err
}

func TestSnapshotRoundTrip(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"rmat":   gen.RMAT(8, 8, 1),
		"er":     gen.ER(500, 2000, 2),
		"road":   gen.Road(20, 20, 3),
		"star":   gen.Star(64),
		"single": graph.FromEdges(0, []graph.Edge{{U: 0, V: 1}}),
	} {
		p := randomPartitioning(g, 5, 21)
		st, err := store.BuildPartitioning(g, p)
		if err != nil {
			t.Fatal(err)
		}
		dir := createDir(t, g, p)
		if err := openDiff(t, dir, st); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Traversals agree after the round trip.
		l, err := Open(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 5; trial++ {
			src := graph.Vertex(rng.Intn(int(g.NumVertices())))
			a, err := st.KHop(context.Background(), src, 3)
			if err != nil {
				t.Fatal(err)
			}
			b, err := l.Epoch().KHop(context.Background(), src, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(a.Vertices, b.Vertices) || !slices.Equal(a.Depths, b.Depths) || a.CrossShardHops != b.CrossShardHops {
				t.Fatalf("%s: khop diverged after round trip", name)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreMatchesBuild: the pinned partitioning and a DNE partitioning
// of RMAT 16 (edge factor 16, 16 partitions) open as the store built from
// them, from at most 3 bytes per edge on disk.
func TestRestoreMatchesBuild(t *testing.T) {
	pinned := gen.RMAT(10, 8, 3)
	rmat := gen.RMAT(16, 16, 42)
	cfg := dne.DefaultConfig()
	cfg.Seed = 3
	res, err := dne.PartitionCtx(context.Background(), rmat, 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		g *graph.Graph
		p *partition.Partitioning
	}{
		"pinned":     {pinned, randomPartitioning(pinned, 8, 3)},
		"dne rmat16": {rmat, res.Partitioning},
	} {
		st, err := store.BuildPartitioning(c.g, c.p)
		if err != nil {
			t.Fatal(err)
		}
		dir := createDir(t, c.g, c.p)
		if err := openDiff(t, dir, st); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		var bytes int64
		for _, p := range bases(t, dir) {
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

// TestPinnedSnapshotDigest pins the bytes Create writes for the pinned
// partitioning (RMAT scale 10, edge factor 8, seed 3, each edge on a seeded
// random one of 8 partitions), every base's name and contents in name
// order: the edge order of each partition and the ESZ1 encoding.
func TestPinnedSnapshotDigest(t *testing.T) {
	g := gen.RMAT(10, 8, 3)
	h := fnv.New64a()
	var size int
	for _, p := range bases(t, createDir(t, g, randomPartitioning(g, 8, 3))) {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(filepath.Base(p)))
		h.Write(b)
		size += len(b)
	}
	if got, want := h.Sum64(), uint64(0x20dd6bcfc0c8cea5); got != want {
		t.Errorf("created directory FNV-64a = %#x, want %#x (%d bytes)", got, want, size)
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := openBase(t, []byte("definitely not a snapshot")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := openBase(t, nil); err == nil {
		t.Error("empty file accepted")
	}
	if _, err := Open(t.TempDir(), Config{}); err == nil {
		t.Error("empty directory accepted without a partition count")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing"), Config{}); err == nil {
		t.Error("missing directory accepted without a partition count")
	}
}

func TestSnapshotRejectsTruncation(t *testing.T) {
	g := gen.ER(300, 1200, 3)
	dir := createDir(t, g, randomPartitioning(g, 4, 3))
	paths := bases(t, dir)
	full, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix of a base must error, never open.
	for _, cut := range []int{0, 1, 10, 27, 28, 100, len(full) / 2, len(full) - 1} {
		if err := os.WriteFile(paths[1], full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if l, err := Open(dir, Config{}); err == nil {
			l.Close()
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// So must a directory missing a whole base.
	if err := os.Remove(paths[1]); err != nil {
		t.Fatal(err)
	}
	if l, err := Open(dir, Config{}); err == nil {
		l.Close()
		t.Error("missing base accepted")
	}
}

// TestSnapshotRejectsCorruptHeader rewrites the header of base 0 of a
// 4-partition directory: magic, version, |V|, index, count (u32 each),
// edges (u64). Each row is refused but one, which is harmless: a base
// declaring one more vertex id than its peers widens the id range served
// by one isolated vertex, within the vertex claim, so Open serves it.
func TestSnapshotRejectsCorruptHeader(t *testing.T) {
	g := gen.ER(100, 400, 8)
	orig := createDir(t, g, randomPartitioning(g, 4, 8))
	open := func(mutate func(b []byte)) (*Live, error) {
		t.Helper()
		dir := t.TempDir()
		for _, p := range bases(t, orig) {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if filepath.Base(p) == graph.CompressedShardFileName(0, 4) {
				mutate(b)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(p)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return Open(dir, Config{})
	}
	cases := map[string]func(b []byte){
		"bad magic":      func(b []byte) { b[0] = 'X' },
		"bad version":    func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 99) },
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
		if l, err := open(mutate); err == nil {
			l.Close()
			t.Errorf("%s: accepted", name)
		}
	}
	l, err := open(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 101) })
	if err != nil {
		t.Fatalf("other |V|: %v", err)
	}
	defer l.Close()
	if n := l.Epoch().NumVertices(); n != 101 {
		t.Errorf("other |V|: serves %d vertex ids, want 101", n)
	}
}

// TestSnapshotRejectsHostileVertexCount: a base whose header claims 2^32-1
// vertices over one edge fails the vertex claim without anything sized by
// it.
func TestSnapshotRejectsHostileVertexCount(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := openBase(t, rawShardFile(1<<32-1, 0, 1, graph.PackEdge(0, 1)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrVertexClaim) {
		t.Fatalf("hostile vertex count: %v, want ErrVertexClaim", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("rejecting the claim allocated %d bytes", alloc)
	}
}

// inconsistentBases are well-framed one-partition bases whose edges no
// writer emits: every count and id is in range, only the edges are wrong.
func inconsistentBases() map[string][]byte {
	return map[string][]byte{
		"self-loop":        rawShardFile(2, 0, 1, graph.PackEdge(0, 0), graph.PackEdge(0, 1)),
		"duplicate-edge":   rawShardFile(2, 0, 1, graph.PackEdge(0, 1), graph.PackEdge(0, 1)),
		"unsorted-targets": rawShardFile(3, 0, 1, graph.PackEdge(0, 2), graph.PackEdge(0, 1)),
	}
}

// TestSnapshotRejectsInconsistentAdjacency: a base whose edges are not
// canonical, strictly increasing and unique is refused, not served.
func TestSnapshotRejectsInconsistentAdjacency(t *testing.T) {
	if _, err := openBase(t, rawShardFile(3, 0, 1, graph.PackEdge(0, 1), graph.PackEdge(0, 2))); err != nil {
		t.Fatalf("a valid hand-encoded base refused: %v", err)
	}
	for name, b := range inconsistentBases() {
		if _, err := openBase(t, b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// dirFiles returns every file of dir by name.
func dirFiles(t testing.TB, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// TestReadOnlyGraphBuildsNoState: a graph that is opened and queried builds
// no placement state and opens no tail. Its Stats and Checksum, and its
// files after Close and a second Open, are those of the same graph with the
// state forced; and the first Apply, Rebalance or Compact builds the state
// and opens the tails.
func TestReadOnlyGraphBuildsNoState(t *testing.T) {
	g := gen.RMAT(9, 8, 3)
	for name, dir := range map[string]string{
		"created": createDir(t, g, randomPartitioning(g, 4, 7)),
		"churned": churnedDir(t, 2),
	} {
		files := dirFiles(t, dir)
		lazy, forced := copyDir(t, dir), copyDir(t, dir)
		var stats [2]Stats
		var sums [2]uint64
		for i, d := range []string{lazy, forced} {
			l, err := Open(d, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				l.State()
			}
			if _, err := l.Epoch().Neighbors(1); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Epoch().KHop(context.Background(), 1, 2); err != nil {
				t.Fatal(err)
			}
			stats[i], sums[i] = l.Stats(), l.Checksum()
			if i == 0 && (l.st != nil || l.adds != nil || l.dead != nil) {
				t.Fatalf("%s: a queried graph holds state %v, tails %v/%v", name, l.st != nil, l.adds != nil, l.dead != nil)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if got := dirFiles(t, d); !maps.Equal(got, files) {
				t.Fatalf("%s: opening (state forced: %v) changed the directory", name, i == 1)
			}
			if l, err = Open(d, Config{}); err != nil {
				t.Fatal(err)
			}
			if got := l.Checksum(); got != sums[i] {
				t.Fatalf("%s: reopened to %#x, first open %#x", name, got, sums[i])
			}
			l.Close()
		}
		if !reflect.DeepEqual(stats[0], stats[1]) || sums[0] != sums[1] {
			t.Fatalf("%s: unwritten graph reads %+v/%#x, with state %+v/%#x", name, stats[0], sums[0], stats[1], sums[1])
		}

		for op, mutate := range map[string]func(l *Live) error{
			"Apply":     func(l *Live) error { _, err := l.Apply(nil); return err },
			"Rebalance": func(l *Live) error { _, err := l.Rebalance(0); return err },
			"Compact":   func(l *Live) error { return l.Compact() },
		} {
			l, err := Open(copyDir(t, dir), Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := mutate(l); err != nil {
				t.Fatal(err)
			}
			if l.st == nil || l.adds == nil || l.dead == nil {
				t.Errorf("%s: %s left state %v, tails %v/%v", name, op, l.st != nil, l.adds != nil, l.dead != nil)
			}
			l.Close()
		}
	}
}
