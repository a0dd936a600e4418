package graph

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeShardFile materializes a fresh shard file at path with the given
// edges and returns its bytes for mutation-based cases.
func writeShardFile(t *testing.T, path string, numVertices uint32, edges []Edge) []byte {
	t.Helper()
	sw, err := CreateShardFile(path, ShardInfo{NumVertices: numVertices, Index: 0, Count: 1})
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
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func readShardFileT(t *testing.T, path string) *Shard {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := readShard(f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardAppendRoundTrip: write, close, reopen for append, extend, close —
// the reader must see the concatenated edge sequence with a valid footer,
// across several append generations and partial final chunks.
func TestShardAppendRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.esh")
	first := []Edge{{0, 1}, {1, 2}, {2, 3}}
	writeShardFile(t, path, 1<<20, first)

	var want []uint64
	for _, e := range first {
		want = append(want, PackEdge(e.U, e.V))
	}
	// Three generations, one of them spilling past the chunk flush boundary
	// so appended chunks and pre-existing chunks coexist.
	for gen, count := range []int{5, shardChunkEdges + 17, 3} {
		sw, err := OpenShardAppend(path)
		if err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		if sw.NumWritten() != uint64(len(want)) {
			t.Fatalf("gen %d: reopened writer reports %d edges, want %d", gen, sw.NumWritten(), len(want))
		}
		if sw.info.Count != 1 || sw.info.NumVertices != 1<<20 {
			t.Fatalf("gen %d: reopened info %+v", gen, sw.info)
		}
		for i := 0; i < count; i++ {
			u := Vertex(gen*100000 + i)
			if err := sw.AppendPacked(PackEdge(u, u+1)); err != nil {
				t.Fatal(err)
			}
			want = append(want, PackEdge(u, u+1))
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		s := readShardFileT(t, path)
		if len(s.Packed) != len(want) {
			t.Fatalf("gen %d: read %d edges, want %d", gen, len(s.Packed), len(want))
		}
		for i, k := range want {
			if s.Packed[i] != k {
				t.Fatalf("gen %d: edge %d = %#x, want %#x", gen, i, s.Packed[i], k)
			}
		}
	}
}

// TestShardAppendRewritesDeclaredHeaderCount: a file whose header declares an
// exact edge count must come back with the streaming sentinel after
// reopening, so the header can never contradict the extended
// contents.
func TestShardAppendRewritesDeclaredHeaderCount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.esh")
	var buf bytes.Buffer
	s := &Shard{NumVertices: 64, Packed: []uint64{PackEdge(1, 2), PackEdge(3, 4)}}
	if err := writeShard(&buf, s, 0, 1); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// The writer streams, so patch an exact count into the header to
	// simulate a count-declaring producer.
	binary.LittleEndian.PutUint64(b[20:], 2)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	sw, err := OpenShardAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.AppendPacked(PackEdge(5, 6)); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	got := readShardFileT(t, path)
	if len(got.Packed) != 3 {
		t.Fatalf("read %d edges, want 3", len(got.Packed))
	}
	hdr, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(hdr[20:]) != ^uint64(0) {
		t.Fatalf("header count %#x not rewritten to the unknown sentinel", binary.LittleEndian.Uint64(hdr[20:]))
	}
}

// TestShardAppendZeroNewEdges: reopen+close with nothing appended must leave
// a byte-identical valid file (footer rewritten with the same total).
func TestShardAppendZeroNewEdges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.esh")
	before := writeShardFile(t, path, 64, []Edge{{0, 1}, {2, 3}})
	sw, err := OpenShardAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("idle reopen changed the file: %d -> %d bytes", len(before), len(after))
	}
}

// TestShardAppendRejectsHostileInput: reopening validates the whole frame
// structure, so every truncation or corruption a crash (or an attacker) can
// leave behind errors instead of silently extending a broken file.
func TestShardAppendRejectsHostileInput(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(b []byte) []byte
		wantErr string
	}{
		{
			name:    "bad magic",
			mutate:  func(b []byte) []byte { binary.LittleEndian.PutUint32(b[0:], 0xdeadbeef); return b },
			wantErr: "bad magic",
		},
		{
			name:    "truncated mid-payload",
			mutate:  func(b []byte) []byte { return b[:len(b)-20] },
			wantErr: "EOF",
		},
		{
			name:    "truncated footer",
			mutate:  func(b []byte) []byte { return b[:len(b)-4] },
			wantErr: "footer",
		},
		{
			name:    "missing terminator",
			mutate:  func(b []byte) []byte { return b[:len(b)-12] },
			wantErr: "", // any error: the walk runs off the end
		},
		{
			name: "footer total tampered",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[len(b)-8:], 99)
				return b
			},
			wantErr: "footer declares 99",
		},
		{
			name:    "trailing bytes after terminator",
			mutate:  func(b []byte) []byte { return append(b, 0xaa, 0xbb) },
			wantErr: "trailing bytes",
		},
		{
			name: "hostile chunk length",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[28:], maxShardChunkEdges+1)
				return b
			},
			wantErr: "exceeds cap",
		},
		{
			name:    "empty file",
			mutate:  func(b []byte) []byte { return nil },
			wantErr: "header",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "s.esh")
			base := writeShardFile(t, path, 64, []Edge{{0, 1}, {1, 2}, {2, 63}})
			mutated := tc.mutate(append([]byte(nil), base...))
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sw, err := OpenShardAppend(path)
			if err == nil {
				sw.Close()
				t.Fatalf("hostile file reopened for append without error")
			}
			if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
			// A rejected reopen must not have modified the file.
			after, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if !bytes.Equal(before, after) {
				t.Fatalf("rejected reopen modified the file")
			}
		})
	}
}
