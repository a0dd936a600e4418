package graph

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// oneFileShardDir writes edges as the single shard of a fresh directory
// whose header claims numVertices ids.
func oneFileShardDir(t testing.TB, numVertices uint32, edges []Edge) string {
	t.Helper()
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, ShardFileName(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewShardWriter(f, ShardInfo{NumVertices: numVertices, Index: 0, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := sw.AppendPacked(PackEdge(e.U, e.V)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestShardDirHostileVertexClaim: a shard directory whose header claims far
// more vertex ids than its edges back is rejected by ReadShardDir and
// DirSource alike, before any consumer sizes O(|V|) state from the claim
// (a 52-byte file claiming 2^32-16 ids used to send dnepart into a 32 GiB
// CSR allocation). Claims within the free bound, or paid for by edges, are
// accepted.
func TestShardDirHostileVertexClaim(t *testing.T) {
	path := make([]Edge, 4097) // 4097 edges back 256·4097 ids
	for i := range path {
		path[i] = Edge{uint32(i), uint32(i + 1)}
	}
	cases := []struct {
		name   string
		claim  uint32
		edges  []Edge
		accept bool
	}{
		{"unbacked 2^32-16 over one edge", 0xFFFFFFF0, []Edge{{0, 1}}, false},
		{"unbacked 2^28 over one edge", 1 << 28, []Edge{{0, 1}}, false},
		{"one past the edge bound", 256*4097 + 1, path, false},
		{"free bound, no edges", 1 << 20, nil, true},
		{"free bound over one edge", 1 << 20, []Edge{{0, 1}}, true},
		{"at the edge bound", 256 * 4097, path, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := oneFileShardDir(t, tc.claim, tc.edges)
			_, rerr := ReadShardDir(dir, nil)
			_, derr := DirSource(dir)
			for name, err := range map[string]error{"ReadShardDir": rerr, "DirSource": derr} {
				switch {
				case tc.accept && err != nil:
					t.Errorf("%s rejected a backed claim: %v", name, err)
				case !tc.accept && err == nil:
					t.Errorf("%s accepted an unbacked claim of %d ids over %d edges", name, tc.claim, len(tc.edges))
				case !tc.accept && !strings.Contains(err.Error(), "claim"):
					t.Errorf("%s error %q does not name the claim", name, err)
				}
			}
		})
	}
}

// TestDirSourceRejectsBrokenShardSets: the directory source shares
// ReadShardDir's validation — incomplete sets, duplicated indices, mixed
// headers and truncated files are rejected at open.
func TestDirSourceRejectsBrokenShardSets(t *testing.T) {
	g := testSourceGraph()
	write := func(t *testing.T, dir, name string, sh *Shard, index, count uint32) string {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeShard(f, sh, index, count); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	shards := ShardsOf(g, 2)

	t.Run("empty dir", func(t *testing.T) {
		if _, err := DirSource(t.TempDir()); err == nil || !strings.Contains(err.Error(), "no *.esh") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("missing shard", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, "shard-0000-of-0002.esh", shards[0], 0, 2)
		if _, err := DirSource(dir); err == nil || !strings.Contains(err.Error(), "declare 2 shards") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("duplicate index", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, "a.esh", shards[0], 0, 2)
		write(t, dir, "b.esh", shards[1], 0, 2)
		if _, err := DirSource(dir); err == nil || !strings.Contains(err.Error(), "shard index 0 in both") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("inconsistent headers", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, "a.esh", shards[0], 0, 2)
		other := &Shard{NumVertices: g.NumVertices() + 7, Packed: shards[1].Packed}
		write(t, dir, "b.esh", other, 1, 2)
		if _, err := DirSource(dir); err == nil || !strings.Contains(err.Error(), "inconsistent") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("truncated file", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, "shard-0000-of-0002.esh", shards[0], 0, 2)
		path := write(t, dir, "shard-0001-of-0002.esh", shards[1], 1, 2)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b[:len(b)-6], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := DirSource(dir); err == nil {
			t.Fatal("truncated shard set accepted")
		}
	})
}

// TestDirSourceRejectsTrailingBytes: a valid shard file with a forged
// second terminator+footer appended must be rejected at scan time — before
// the bogus tail can skew the directory's exact |E| hint and drive an
// owner-array overrun in a streaming core.
func TestDirSourceRejectsTrailingBytes(t *testing.T) {
	g := testSourceGraph()
	dir := t.TempDir()
	if err := WriteCanonicalShards(dir, g, 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ShardFileName(0, 1))
	var tail [12]byte // forged terminator + understated footer
	binary.LittleEndian.PutUint64(tail[4:], uint64(g.NumEdges())-100)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tail[:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := DirSource(dir); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("forged tail accepted: %v", err)
	}
}

// TestShardDirOverDeclaredChunksDoNotDrivePrealloc: ESZ1 frame headers that
// declare far more edges than their payload bytes can encode inflate the
// scan's edge count (payloads are skipped). ReadShardDir and ReadShardFile
// still size their slices by the file's bytes, and fail on the decode.
func TestShardDirOverDeclaredChunksDoNotDrivePrealloc(t *testing.T) {
	chunks := make([][]byte, 200)
	for i := range chunks {
		chunks[i] = zChunk(1<<16, []byte{0}) // 65536 edges in one payload byte
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, zCodec.fileName(0, 1)), zFile(64, ^uint64(0), chunks...), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, errMerged := ReadShardDir(dir, nil)
	_, _, errFile := ReadShardFile(filepath.Join(dir, zCodec.fileName(0, 1)))
	runtime.ReadMemStats(&after)
	if errMerged == nil || errFile == nil {
		t.Fatalf("over-declared chunks accepted: %v, %v", errMerged, errFile)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Errorf("reading a %d-chunk file declaring %d edges allocated %d bytes", len(chunks), len(chunks)<<16, alloc)
	}
}
