package graph

import (
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// validBinaryBytes builds a well-formed DNE1 binary edge list for the
// mutation cases below. Layout: 16-byte header (magic, |V|, |E|), then 8
// bytes per edge (two little-endian uint32 endpoints).
func validBinaryBytes(t *testing.T) []byte {
	t.Helper()
	edges := make([]Edge, 0, 600)
	for i := uint32(0); i < 600; i++ {
		edges = append(edges, Edge{i, i + 1})
	}
	g := FromEdges(0, edges)
	path := filepath.Join(t.TempDir(), "v.dne")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// drainSource pulls a full pass, returning the first error (io.EOF mapped
// to nil).
func drainSource(src Source) error {
	es, err := src.Edges()
	if err != nil {
		return err
	}
	defer es.Close()
	for {
		if _, _, err := es.Next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// TestBinarySourceRejectsHostileInput is the source counterpart of the
// ReadBinary/ShardReader hardening suites: every corrupted header or
// payload must error — on open or during the pass — never panic, never
// yield a short or invalid stream.
func TestBinarySourceRejectsHostileInput(t *testing.T) {
	base := validBinaryBytes(t)
	cases := []struct {
		name    string
		mutate  func(b []byte) []byte
		wantErr string
		// onOpen means BinarySource itself must fail; otherwise the error
		// must surface while draining the pass.
		onOpen bool
	}{
		{
			name:    "bad magic",
			mutate:  func(b []byte) []byte { binary.LittleEndian.PutUint32(b[0:], 0xdeadbeef); return b },
			wantErr: "bad magic",
			onOpen:  true,
		},
		{
			name:    "truncated header",
			mutate:  func(b []byte) []byte { return b[:10] },
			wantErr: "header",
			onOpen:  true,
		},
		{
			name:    "truncated chunk",
			mutate:  func(b []byte) []byte { return b[:len(b)-5] },
			wantErr: "reading edge",
		},
		{
			name:    "empty payload with declared edges",
			mutate:  func(b []byte) []byte { return b[:16] },
			wantErr: "reading edge",
		},
		{
			name: "out-of-range endpoint",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[16:], 1<<30) // first edge's U
				return b
			},
			wantErr: "out of range",
		},
		{
			name: "over-declared edge count",
			mutate: func(b []byte) []byte {
				m := binary.LittleEndian.Uint64(b[8:])
				binary.LittleEndian.PutUint64(b[8:], m+100)
				return b
			},
			wantErr: "reading edge",
		},
		{
			name: "hostile huge edge count",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[8:], 1<<40)
				return b
			},
			wantErr: "reading edge",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), base...))
			path := filepath.Join(t.TempDir(), "h.dne")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			src, err := BinarySource(path)
			if tc.onOpen {
				if err == nil {
					t.Fatalf("hostile file accepted at open")
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			err = drainSource(src)
			if err == nil {
				t.Fatal("hostile stream drained without error")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
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
