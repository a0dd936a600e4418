package graph

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// writeAppendCycles materializes a raw shard one chunk per cycle: the first
// cycle creates the file, every later one reopens it with OpenShardAppend.
// It returns the file's bytes and every key in file order.
func writeAppendCycles(t *testing.T, path string, cycles ...[]Edge) ([]byte, []uint64) {
	t.Helper()
	writeShardFile(t, path, 64, cycles[0])
	for _, edges := range cycles[1:] {
		sw, err := OpenShardAppend(path)
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
	}
	var keys []uint64
	for _, edges := range cycles {
		for _, e := range edges {
			keys = append(keys, PackEdge(e.U, e.V))
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b, keys
}

// writeTwoChunkShard materializes a shard with two chunks (3 + 2 edges) so
// corruption cases can land inside the second frame while the first
// survives. Layout: 28-byte header, chunk1 at 28 (4+24), chunk2 at 56
// (4+16), terminator at 76, footer at 80, total 88 bytes.
func writeTwoChunkShard(t *testing.T, path string) ([]byte, []uint64) {
	t.Helper()
	b, keys := writeAppendCycles(t, path, []Edge{{0, 1}, {1, 2}, {2, 3}}, []Edge{{5, 6}, {7, 8}})
	if len(b) != 88 {
		t.Fatalf("fixture is %d bytes, layout comments assume 88", len(b))
	}
	return b, keys
}

// tornFixture is a small valid multi-chunk shard file to cut at every byte.
type tornFixture struct {
	name  string // file name; its extension selects the format in DirSource
	codec *shardCodec
	bytes []byte
	keys  []uint64 // every key, in file order
}

// chunkPrefix returns the end offset of the last chunk the first cut bytes
// hold completely, and the edges in the chunks up to it.
func (fx tornFixture) chunkPrefix(cut int) (end, edges int) {
	end = shardHeaderLen
	for {
		n := int(binary.LittleEndian.Uint32(fx.bytes[end:]))
		if n == 0 {
			return end, edges
		}
		next := end + fx.codec.hdrLen + n*int(fx.codec.perEdge)
		if fx.codec.hdrLen == 8 {
			next = end + 8 + int(binary.LittleEndian.Uint32(fx.bytes[end+4:]))
		}
		if next > cut {
			return end, edges
		}
		end, edges = next, edges+n
	}
}

// tornRegions groups every cut offset of fx, 0 through its size, by where the
// cut lands: in order, an empty file, inside the header, inside a chunk frame
// header (a cut on a chunk boundary included), inside a payload, right before
// the terminator, inside the terminator or footer, and the whole file.
func (fx tornFixture) tornRegions() [7][]int {
	var r [7][]int
	term, _ := fx.chunkPrefix(len(fx.bytes))
	for cut := 0; cut <= len(fx.bytes); cut++ {
		end, _ := fx.chunkPrefix(cut)
		switch {
		case cut == 0:
			r[0] = append(r[0], cut)
		case cut < shardHeaderLen:
			r[1] = append(r[1], cut)
		case cut == len(fx.bytes):
			r[6] = append(r[6], cut)
		case cut > term:
			r[5] = append(r[5], cut)
		case cut == term:
			r[4] = append(r[4], cut)
		case cut < end+fx.codec.hdrLen:
			r[2] = append(r[2], cut)
		default:
			r[3] = append(r[3], cut)
		}
	}
	return r
}

// sweepTornTails cuts fx at every byte offset and runs one subtest per
// region of tornRegions, under the given names. Below the header, recovery
// must fail and leave the file byte-identical. Otherwise it must keep
// exactly the complete chunks before the cut — the reader yields exactly
// their keys, a second recovery is a no-op, DirSource's exact count equals
// what its stream yields, and a raw file reopens for append.
func sweepTornTails(t *testing.T, fx tornFixture, names [7]string) {
	for i, cuts := range fx.tornRegions() {
		t.Run(names[i], func(t *testing.T) {
			if len(cuts) == 0 {
				t.Fatal("no cut lands in this region")
			}
			dir := t.TempDir()
			path := filepath.Join(dir, fx.name)
			for _, cut := range cuts {
				checkTornTail(t, fx, path, cut)
			}
		})
	}
}

func checkTornTail(t *testing.T, fx tornFixture, path string, cut int) {
	t.Helper()
	torn := fx.bytes[:cut]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	edges, dropped, err := RecoverShardTail(path)
	if cut < shardHeaderLen {
		if err == nil || !strings.Contains(err.Error(), "header") {
			t.Fatalf("cut %d: recovery of a torn header returned %v", cut, err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, torn) {
			t.Fatalf("cut %d: failed recovery modified the file", cut)
		}
		return
	}
	if err != nil {
		t.Fatalf("cut %d: %v", cut, err)
	}
	end, want := fx.chunkPrefix(cut)
	wantDropped := int64(cut - end)
	if cut == len(fx.bytes) {
		wantDropped = 0
	}
	if int(edges) != want || dropped != wantDropped {
		t.Fatalf("cut %d: recovered %d edges dropping %d bytes, want %d edges dropping %d",
			cut, edges, dropped, want, wantDropped)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := readShard(f)
	f.Close()
	if err != nil {
		t.Fatalf("cut %d: recovered file does not read: %v", cut, err)
	}
	if !slices.Equal(s.Packed, fx.keys[:want]) {
		t.Fatalf("cut %d: read %#x, want %#x", cut, s.Packed, fx.keys[:want])
	}
	if edges2, dropped2, err := RecoverShardTail(path); err != nil || edges2 != edges || dropped2 != 0 {
		t.Fatalf("cut %d: recovery not idempotent: edges %d->%d dropped %d err %v", cut, edges, edges2, dropped2, err)
	}
	src, err := DirSource(filepath.Dir(path))
	if err != nil {
		t.Fatalf("cut %d: %v", cut, err)
	}
	st, err := src.Edges()
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	for {
		chunk, _, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		streamed += len(chunk)
	}
	st.Close()
	if src.Info().NumEdges != int64(streamed) || streamed != want {
		t.Fatalf("cut %d: DirSource counts %d edges, streams %d, want %d", cut, src.Info().NumEdges, streamed, want)
	}
	if fx.codec == rawCodec {
		sw, err := OpenShardAppend(path)
		if err != nil {
			t.Fatalf("cut %d: recovered file rejected for append: %v", cut, err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverShardTail: every tail a SIGKILL (or bit rot) can leave behind
// either recovers to the longest valid chunk prefix or — when the header
// itself is gone — fails without touching the file. The torn tails are
// swept at every byte of a three-chunk file built by append cycles; the
// table covers corruption that truncation cannot produce. Recovered files
// must be fully valid: readable, reopenable for append, and idempotent under
// a second recovery pass.
func TestRecoverShardTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0000-of-0001.esh")
	b, keys := writeAppendCycles(t, path,
		[]Edge{{0, 1}, {1, 2}, {2, 3}}, []Edge{{5, 6}, {7, 8}}, []Edge{{9, 10}})
	sweepTornTails(t, tornFixture{filepath.Base(path), rawCodec, b, keys}, [7]string{
		"empty file", "truncated header", "torn mid-chunk-count", "torn mid-payload",
		"missing terminator", "torn mid-footer", "valid file untouched",
	})

	cases := []struct {
		name      string
		mutate    func(b []byte) []byte
		wantEdges int    // prefix length surviving recovery
		wantErr   string // non-empty: recovery must fail mentioning this
	}{
		{
			name:      "junk after terminator",
			mutate:    func(b []byte) []byte { return append(b, 0xaa, 0xbb, 0xcc) },
			wantEdges: 5,
		},
		{
			name: "garbage edges in tail chunk",
			mutate: func(b []byte) []byte {
				b[60+4] = 0xff // edge {5,6} becomes non-canonical (u >= v)
				return b
			},
			wantEdges: 3,
		},
		{
			name: "hostile chunk length",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[56:], maxShardChunkEdges+1)
				return b
			},
			wantEdges: 3,
		},
		{
			name: "footer total tampered",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[len(b)-8:], 99)
				return b
			},
			wantEdges: 5,
		},
		{
			name:    "bad magic",
			mutate:  func(b []byte) []byte { binary.LittleEndian.PutUint32(b[0:], 0xdeadbeef); return b },
			wantErr: "bad magic",
		},
		{
			name:    "bad version",
			mutate:  func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:], 99); return b },
			wantErr: "unsupported version",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s.esh")
			base, want := writeTwoChunkShard(t, path)
			mutated := tc.mutate(append([]byte(nil), base...))
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}

			edges, dropped, err := RecoverShardTail(path)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("recovered an unrecoverable file (%d edges)", edges)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
				after, rerr := os.ReadFile(path)
				if rerr != nil {
					t.Fatal(rerr)
				}
				if !bytes.Equal(mutated, after) {
					t.Fatal("failed recovery modified the file")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if int(edges) != tc.wantEdges {
				t.Fatalf("recovered %d edges, want %d", edges, tc.wantEdges)
			}
			if dropped == 0 {
				t.Fatal("expected dropped tail bytes, got 0")
			}

			// The recovered file must be a fully valid shard replaying
			// exactly the surviving prefix.
			s := readShardFileT(t, path)
			if !slices.Equal(s.Packed, want[:tc.wantEdges]) {
				t.Fatalf("read back %#x, want %#x", s.Packed, want[:tc.wantEdges])
			}

			// A second pass must be a no-op.
			edges2, dropped2, err := RecoverShardTail(path)
			if err != nil || edges2 != edges || dropped2 != 0 {
				t.Fatalf("recovery not idempotent: edges %d->%d dropped %d err %v",
					edges, edges2, dropped2, err)
			}

			// And the file must accept further appends.
			sw, err := OpenShardAppend(path)
			if err != nil {
				t.Fatalf("recovered file rejected for append: %v", err)
			}
			if err := sw.AppendPacked(PackEdge(40, 41)); err != nil {
				t.Fatal(err)
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
			if s := readShardFileT(t, path); len(s.Packed) != tc.wantEdges+1 {
				t.Fatalf("post-recovery append: %d edges, want %d", len(s.Packed), tc.wantEdges+1)
			}
		})
	}
}

// TestRecoverZShardTail: torn compressed tails recover to the longest valid
// chunk prefix exactly like raw shards, swept at every byte of a three-chunk
// ESZ1 file.
func TestRecoverZShardTail(t *testing.T) {
	keys := []uint64{
		PackEdge(1, 2), PackEdge(1, 3), PackEdge(2, 5),
		PackEdge(3, 4), PackEdge(3, 4), PackEdge(6, 9),
		PackEdge(7, 8),
	}
	chunks := [][]byte{
		zChunk(3, uvarints(1, 0, 0, 1, 1, 2)),
		zChunk(3, uvarints(3, 0, 0, 0, 3, 2)),
		zChunk(1, uvarints(7, 0)),
	}
	b := zFile(64, ^uint64(0), chunks...)
	sweepTornTails(t, tornFixture{zCodec.fileName(0, 1), zCodec, b, keys}, [7]string{
		"empty file", "truncated header", "torn mid chunk header", "torn mid payload",
		"missing terminator", "torn mid footer", "valid file untouched",
	})

	// A chunk that decodes on its own but goes backwards from its
	// predecessor is one the reader rejects, so recovery drops it too.
	t.Run("chunk out of order", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "s.esz")
		if err := os.WriteFile(path, zFile(64, ^uint64(0), append(chunks, zChunk(1, uvarints(1, 0)))...), 0o644); err != nil {
			t.Fatal(err)
		}
		edges, dropped, err := RecoverShardTail(path)
		if err != nil || int(edges) != len(keys) || dropped != 10+12 {
			t.Fatalf("recovered %d edges dropping %d bytes (%v), want %d edges dropping 22", edges, dropped, err, len(keys))
		}
		if got := readShardFileT(t, path); !slices.Equal(got.Packed, keys) {
			t.Fatalf("read %#x, want %#x", got.Packed, keys)
		}
	})
}
