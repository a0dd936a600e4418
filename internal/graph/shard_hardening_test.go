package graph

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// validShardBytes builds a well-formed two-chunk shard file the mutation
// cases below corrupt. Offsets within the returned buffer:
//
//	0   header (28 bytes: magic, version, |V|, index, count, edge count)
//	28  chunk 1 count (uint32), then count packed edges
//	...
//	terminator (uint32 0) + footer (uint64 total)
func validShardBytes(t testing.TB, numVertices uint32, edges []Edge) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewShardWriter(&buf, ShardInfo{NumVertices: numVertices, Index: 0, Count: 2})
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
	return buf.Bytes()
}

// TestShardReaderRejectsHostileInput is the table-driven shard hardening
// suite: every corrupted header, chunk frame or payload must error — never panic, never allocate per a hostile count, and
// never yield a shard with invalid edges.
func TestShardReaderRejectsHostileInput(t *testing.T) {
	for _, tc := range rawHostileShards(t) {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readShard(bytes.NewReader(tc.build()))
			if err == nil {
				t.Fatal("hostile shard accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// rawHostileShards is the raw EShard hardening table, shared with
// FuzzShardReader's seeds: each case mutates a copy of a valid file.
func rawHostileShards(tb testing.TB) []hostileShard {
	base := validShardBytes(tb, 64, []Edge{{0, 1}, {1, 2}, {2, 63}})
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
			name:    "unsupported version",
			mutate:  func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:], 99); return b },
			wantErr: "version",
		},
		{
			name:    "shard index out of range",
			mutate:  func(b []byte) []byte { binary.LittleEndian.PutUint32(b[12:], 7); return b },
			wantErr: "index 7 out of range",
		},
		{
			name:    "zero shard count",
			mutate:  func(b []byte) []byte { binary.LittleEndian.PutUint32(b[16:], 0); return b },
			wantErr: "count must be positive",
		},
		{
			name: "hostile chunk length",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[28:], 1<<30)
				return b
			},
			wantErr: "exceeds cap",
		},
		{
			name: "endpoint out of range",
			mutate: func(b []byte) []byte {
				// First edge becomes (0, 1000) with |V|=64.
				binary.LittleEndian.PutUint64(b[32:], PackEdge(0, 1000))
				return b
			},
			wantErr: "out of range",
		},
		{
			name: "non-canonical edge",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[32:], uint64(2)<<32|1)
				return b
			},
			wantErr: "not canonical",
		},
		{
			name: "self loop",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[32:], uint64(3)<<32|3)
				return b
			},
			wantErr: "not canonical",
		},
		{
			name: "footer undercounts",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[len(b)-8:], 1)
				return b
			},
			wantErr: "footer declares",
		},
		{
			name: "declared header count wrong",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[20:], 9999)
				return b
			},
			wantErr: "header declares",
		},
	}
	out := make([]hostileShard, len(cases))
	for i, tc := range cases {
		out[i] = hostileShard{tc.name, func() []byte { return tc.mutate(bytes.Clone(base)) }, tc.wantErr}
	}
	return out
}

// TestShardReaderRejectsTruncation: every strict prefix of a valid shard
// must error (missing footer, cut chunk, cut header).
func TestShardReaderRejectsTruncation(t *testing.T) {
	edges := make([]Edge, 0, 500)
	for i := uint32(0); i < 500; i++ {
		edges = append(edges, Edge{i, i + 1})
	}
	full := validShardBytes(t, 501, edges)
	for _, cut := range []int{0, 10, 27, 28, 30, 40, len(full) / 2, len(full) - 9, len(full) - 1} {
		if _, err := readShard(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestShardReaderHostileEdgeCountPrealloc: a header declaring 2^40 edges
// over a tiny body must fail on the short read, with preallocation capped.
func TestShardReaderHostileEdgeCountPrealloc(t *testing.T) {
	var buf bytes.Buffer
	var hdr [28]byte
	binary.LittleEndian.PutUint32(hdr[0:], shardMagic)
	binary.LittleEndian.PutUint32(hdr[4:], shardVersion)
	binary.LittleEndian.PutUint32(hdr[8:], 100)
	binary.LittleEndian.PutUint32(hdr[12:], 0)
	binary.LittleEndian.PutUint32(hdr[16:], 1)
	binary.LittleEndian.PutUint64(hdr[20:], 1<<40)
	buf.Write(hdr[:])
	buf.Write(make([]byte, 64))
	if _, err := readShard(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("hostile edge count accepted")
	}
}

func TestShardReaderRejectsGarbage(t *testing.T) {
	if _, err := readShard(strings.NewReader("not a shard at all, definitely")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := readShard(strings.NewReader("")); err == nil {
		t.Error("empty accepted")
	}
}

// TestShardWriterRejectsBadInfo: the writer validates placement up front.
func TestShardWriterRejectsBadInfo(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewShardWriter(&buf, ShardInfo{NumVertices: 4, Index: 3, Count: 3}); err == nil {
		t.Error("index == count accepted")
	}
	if _, err := NewShardWriter(&buf, ShardInfo{NumVertices: 4, Index: 0, Count: 0}); err == nil {
		t.Error("zero count accepted")
	}
}

// TestShardWriterAppendAfterClose: appends after Close must error, not
// silently write past the footer.
func TestShardWriterAppendAfterClose(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewShardWriter(&buf, ShardInfo{NumVertices: 4, Index: 0, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sw.AppendPacked(PackEdge(0, 1)); err == nil {
		t.Error("append after close accepted")
	}
}
