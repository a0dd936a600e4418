package graph

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// sortedTestKeys builds a sorted canonical packed edge list with a skewed
// (clustered-source) shape, the profile ESZ1 is built for.
func sortedTestKeys(n int, numVertices uint32, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		u := uint32(rng.Intn(int(numVertices) - 1))
		// A burst of edges out of u, mimicking a power-law row.
		burst := 1 + rng.Intn(8)
		for b := 0; b < burst && len(keys) < n; b++ {
			v := u + 1 + uint32(rng.Intn(int(numVertices-u-1)))
			keys = append(keys, uint64(u)<<32|uint64(v))
		}
	}
	slices.Sort(keys)
	return keys
}

func zShardBytes(t *testing.T, numVertices uint32, keys []uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := NewZShardWriter(&buf, ShardInfo{NumVertices: numVertices, Index: 0, Count: 1, NumEdges: unknownEdgeCount})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := zw.AppendPacked(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drainShard reads a whole shard stream of either format.
func drainShard(r io.Reader) ([]uint64, error) {
	zr, err := NewShardReader(r)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for {
		chunk, err := zr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, chunk...)
	}
}

func TestZShardRoundTrip(t *testing.T) {
	// Spans several chunk boundaries, includes duplicates.
	keys := sortedTestKeys(3*shardChunkEdges+517, 1<<14, 7)
	keys = append(keys, keys[len(keys)-1]) // duplicate tail edge
	slices.Sort(keys)
	b := zShardBytes(t, 1<<14, keys)
	got, err := drainShard(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, keys) {
		t.Fatalf("round trip mismatch: wrote %d edges, read %d", len(keys), len(got))
	}
}

// TestZShardCompressesSortedEdges: the format's reason to exist — sorted
// skewed edge lists must come out far smaller than 8 bytes/edge. The ≥2×
// acceptance bar for real RMAT data is asserted end to end in the root
// stream tests; this is the unit-level floor.
func TestZShardCompressesSortedEdges(t *testing.T) {
	keys := sortedTestKeys(200_000, 1<<16, 42)
	b := zShardBytes(t, 1<<16, keys)
	raw := rawShardBytes(uint64(len(keys)))
	if int64(len(b))*2 > raw {
		t.Fatalf("compressed %d bytes vs raw %d: ratio %.2fx below 2x",
			len(b), raw, float64(raw)/float64(len(b)))
	}
}

// TestZShardWriterRejectsUnsorted: sortedness is the format's invariant;
// out-of-order appends must error at write time, not corrupt the stream.
func TestZShardWriterRejectsUnsorted(t *testing.T) {
	var buf bytes.Buffer
	zw, err := NewZShardWriter(&buf, ShardInfo{NumVertices: 64, Index: 0, Count: 1, NumEdges: unknownEdgeCount})
	if err != nil {
		t.Fatal(err)
	}
	if err := zw.AppendPacked(PackEdge(5, 9)); err != nil {
		t.Fatal(err)
	}
	if err := zw.AppendPacked(PackEdge(2, 3)); err == nil {
		t.Fatal("unsorted append accepted")
	}
}

// zChunk hand-assembles one ESZ1 chunk frame from raw varint pairs so the
// hostile cases below can craft payloads no writer would produce.
func zChunk(n uint32, payload []byte) []byte {
	frame := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:], n)
	binary.LittleEndian.PutUint32(frame[4:], uint32(len(payload)))
	return append(frame, payload...)
}

func zFile(numVertices uint32, declared uint64, chunks ...[]byte) []byte {
	var buf bytes.Buffer
	buf.Write(appendShardHeader(nil, zCodec, ShardInfo{NumVertices: numVertices, Count: 1}))
	var total uint64
	for _, c := range chunks {
		buf.Write(c)
		total += uint64(binary.LittleEndian.Uint32(c[0:4]))
	}
	var tail [12]byte
	if declared == ^uint64(0) {
		declared = total // caller wants a consistent footer
	}
	binary.LittleEndian.PutUint64(tail[4:], declared)
	buf.Write(tail[:])
	return buf.Bytes()
}

func uvarints(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestZShardReaderRejectsHostileInput is the ESZ1 counterpart of the EShard
// hardening table: truncated varints, overflowing deltas, over-declared
// chunk counts, payload-length lies and footer contradictions must all
// error — never panic, never allocate per a hostile length, never yield an
// invalid edge.
func TestZShardReaderRejectsHostileInput(t *testing.T) {
	for _, tc := range zHostileShards() {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := drainShard(bytes.NewReader(tc.build())); err == nil {
				t.Fatal("hostile compressed shard accepted")
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// hostileShard is one corrupted shard file and the error reading it must
// raise.
type hostileShard struct {
	name    string
	build   func() []byte
	wantErr string
}

// zHostileShards is the ESZ1 hardening table, shared with FuzzShardReader's
// seeds.
func zHostileShards() []hostileShard {
	const sentinel = ^uint64(0)
	return []hostileShard{
		{
			name: "bad magic",
			build: func() []byte {
				b := zFile(64, sentinel, zChunk(1, uvarints(1, 0)))
				binary.LittleEndian.PutUint32(b[0:], 0xdeadbeef)
				return b
			},
			wantErr: "bad magic",
		},
		{
			name: "unsupported version",
			build: func() []byte {
				b := zFile(64, sentinel, zChunk(1, uvarints(1, 0)))
				binary.LittleEndian.PutUint32(b[4:], 99)
				return b
			},
			wantErr: "version",
		},
		{
			name: "over-declared chunk count",
			build: func() []byte {
				return zFile(64, sentinel, zChunk(1<<30, uvarints(1, 0)))
			},
			wantErr: "exceeds cap",
		},
		{
			name: "zero payload length",
			build: func() []byte {
				c := zChunk(1, nil)
				return zFile(64, sentinel, c)
			},
			wantErr: "outside (0,",
		},
		{
			name: "payload length over cap",
			build: func() []byte {
				// One declared edge but an 11-byte payload: > 10·n.
				return zFile(64, sentinel, zChunk(1, make([]byte, 11)))
			},
			wantErr: "outside (0,",
		},
		{
			name: "truncated varint payload",
			build: func() []byte {
				// A lone continuation byte: Uvarint finds no terminator.
				return zFile(64, sentinel, zChunk(1, []byte{0x80}))
			},
			wantErr: "truncated or oversized",
		},
		{
			name: "oversized varint",
			build: func() []byte {
				// 10 continuation bytes overflow uint64: Uvarint reports
				// overflow, which must surface as an error, not wrap.
				p := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
				return zFile(64, sentinel, zChunk(1, p))
			},
			wantErr: "truncated or oversized",
		},
		{
			name: "source delta overflows vertex range",
			build: func() []byte {
				// du=70 with |V|=64: u out of range.
				return zFile(64, sentinel, zChunk(1, uvarints(70, 0)))
			},
			wantErr: "out of range",
		},
		{
			name: "destination gap overflows vertex range",
			build: func() []byte {
				// u=1, gap puts v at 1+1+80 = 82 with |V|=64.
				return zFile(64, sentinel, zChunk(1, uvarints(1, 80)))
			},
			wantErr: "out of range",
		},
		{
			name: "same-row gap goes non-canonical",
			build: func() []byte {
				// Edge (1,2), then du=0 with gap 0 from prevV=2 is a legal
				// duplicate — but a second chunk resetting prev to (0,0)
				// makes du=0, gap=1 decode (0,1): fine. To force u>=v, use
				// du=0 on the FIRST edge of a chunk: decodes (0, gap) and
				// gap=0 gives the self loop (0,0).
				return zFile(64, sentinel, zChunk(1, uvarints(0, 0)))
			},
			wantErr: "not canonical",
		},
		{
			name: "stream not sorted across chunks",
			build: func() []byte {
				// Chunk 1 ends at (5,6); chunk 2 restarts at (1,2).
				c1 := zChunk(1, uvarints(5, 0))
				c2 := zChunk(1, uvarints(1, 0))
				return zFile(64, sentinel, c1, c2)
			},
			wantErr: "not sorted",
		},
		{
			name: "payload bytes left over",
			build: func() []byte {
				// One edge declared, two encoded: extra bytes must error.
				return zFile(64, sentinel, zChunk(1, uvarints(1, 0, 0, 1)))
			},
			wantErr: "payload bytes left",
		},
		{
			name: "payload too short for declared edges",
			build: func() []byte {
				// Two edges declared, one encoded: the second read runs off
				// the payload end.
				return zFile(64, sentinel, zChunk(2, uvarints(1, 0)))
			},
			wantErr: "truncated or oversized",
		},
		{
			name: "footer undercounts",
			build: func() []byte {
				return zFile(64, 1, zChunk(1, uvarints(1, 0)), zChunk(1, uvarints(2, 0)))
			},
			wantErr: "footer declares",
		},
		{
			name: "header count contradicts footer",
			build: func() []byte {
				b := zFile(64, sentinel, zChunk(1, uvarints(1, 0)))
				binary.LittleEndian.PutUint64(b[20:], 9999)
				return b
			},
			wantErr: "header declares",
		},
	}
}

// TestZShardReaderRejectsTruncation: every strict prefix of a valid
// compressed shard must error.
func TestZShardReaderRejectsTruncation(t *testing.T) {
	keys := sortedTestKeys(2*shardChunkEdges+100, 1<<12, 3)
	full := zShardBytes(t, 1<<12, keys)
	for _, cut := range []int{0, 10, 27, 28, 31, 40, len(full) / 2, len(full) - 9, len(full) - 1} {
		if _, err := drainShard(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestNewShardReaderDispatch: the one reader must stream both formats, the
// header's magic selecting the codec, and reject unknown magics.
func TestNewShardReaderDispatch(t *testing.T) {
	keys := sortedTestKeys(1000, 1<<10, 11)

	var raw bytes.Buffer
	sw, err := NewShardWriter(&raw, ShardInfo{NumVertices: 1 << 10, Index: 0, Count: 1, NumEdges: unknownEdgeCount})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := sw.AppendPacked(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	comp := zShardBytes(t, 1<<10, keys)

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"raw", raw.Bytes()},
		{"compressed", comp},
	} {
		got, err := drainShard(bytes.NewReader(tc.data))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(got, keys) {
			t.Fatalf("%s: stream mismatch", tc.name)
		}
	}

	if _, err := NewShardReader(strings.NewReader("XXXXjunkjunkjunkjunkjunkjunkjunk")); err == nil ||
		!strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("unknown magic: got %v", err)
	}
}

// TestCompressedShardDir: WriteCanonicalShardsCompressed round-trips through
// DirSource with the exact same stream a raw directory yields, and
// ShardDirStats reports the compression.
func TestCompressedShardDir(t *testing.T) {
	g := FromPacked(1<<12, sortedTestKeys(30_000, 1<<12, 23))
	rawDir, zDir := t.TempDir(), t.TempDir()
	if err := WriteCanonicalShards(rawDir, g, 4); err != nil {
		t.Fatal(err)
	}
	if err := WriteCanonicalShardsCompressed(zDir, g, 4); err != nil {
		t.Fatal(err)
	}

	drain := func(dir string) []uint64 {
		t.Helper()
		src, err := DirSource(dir)
		if err != nil {
			t.Fatal(err)
		}
		if src.Info().NumEdges != g.NumEdges() {
			t.Fatalf("%s: hint %d edges, graph has %d", dir, src.Info().NumEdges, g.NumEdges())
		}
		st, err := src.Edges()
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var out []uint64
		for {
			chunk, _, err := st.Next()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, chunk...)
		}
	}
	if !slices.Equal(drain(rawDir), drain(zDir)) {
		t.Fatal("compressed dir stream differs from raw dir stream")
	}

	stats, err := ShardDirStats(zDir)
	if err != nil {
		t.Fatal(err)
	}
	var disk, rawEq int64
	for _, s := range stats {
		if !s.Compressed {
			t.Errorf("%s not reported compressed", s.Path)
		}
		if s.Ratio <= 1 {
			t.Errorf("%s: ratio %.2f not > 1", s.Path, s.Ratio)
		}
		disk += s.DiskBytes
		rawEq += rawShardBytes(s.Edges)
	}
	if disk*2 > rawEq {
		t.Errorf("compressed dir %d bytes vs raw-equivalent %d: below 2x", disk, rawEq)
	}

	// A mixed directory (raw + compressed stripes of the same set) also
	// validates and streams, since only the magic differs per file.
	mixDir := t.TempDir()
	for i, name := range []string{ShardFileName(0, 4), zCodec.fileName(1, 4), ShardFileName(2, 4), zCodec.fileName(3, 4)} {
		from := filepath.Join(rawDir, ShardFileName(i, 4))
		if strings.HasSuffix(name, ".esz") {
			from = filepath.Join(zDir, name)
		}
		data, err := os.ReadFile(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(mixDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(drain(mixDir), drain(rawDir)) {
		t.Fatal("mixed dir stream differs from raw dir stream")
	}
}

// TestDirSourceMetersBytes: the source reports the storage bytes its passes
// consumed — about the file set size per full pass.
func TestDirSourceMetersBytes(t *testing.T) {
	g := FromPacked(1<<10, sortedTestKeys(5_000, 1<<10, 5))
	dir := t.TempDir()
	if err := WriteCanonicalShardsCompressed(dir, g, 2); err != nil {
		t.Fatal(err)
	}
	src, err := DirSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	meter, ok := src.(ByteMeter)
	if !ok {
		t.Fatal("DirSource does not implement ByteMeter")
	}
	st, err := src.Edges()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, _, err := st.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	stats, err := ShardDirStats(dir)
	if err != nil {
		t.Fatal(err)
	}
	var disk int64
	for _, s := range stats {
		disk += s.DiskBytes
	}
	if got := meter.BytesRead(); got < disk {
		t.Fatalf("meter reports %d bytes, file set is %d", got, disk)
	}
}
