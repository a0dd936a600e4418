package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"github.com/distributedne/dne/internal/binio"
)

func testEdges() []Edge {
	return []Edge{
		{0, 1}, {1, 2}, {2, 3}, {0, 3}, {1, 3}, {4, 5}, {0, 5}, {2, 5},
		{3, 1}, // duplicate of {1,3} after canon
	}
}

// readShard loads a whole shard stream into memory, preallocating by the
// header's declared count capped against hostile headers.
func readShard(r io.Reader) (*Shard, error) {
	sr, err := NewShardReader(r)
	if err != nil {
		return nil, err
	}
	prealloc := sr.info.NumEdges
	if prealloc == unknownEdgeCount {
		prealloc = 0
	}
	s := &Shard{NumVertices: sr.info.NumVertices, Packed: make([]uint64, 0, binio.Cap(prealloc))}
	for {
		chunk, err := sr.Next()
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			return nil, err
		}
		s.Packed = append(s.Packed, chunk...)
	}
}

// writeShard writes s as a raw EShard stream with the given placement.
func writeShard(w io.Writer, s *Shard, index, count uint32) error {
	sw, err := NewShardWriter(w, ShardInfo{NumVertices: s.NumVertices, Index: index, Count: count})
	if err != nil {
		return err
	}
	for _, k := range s.Packed {
		if err := sw.AppendPacked(k); err != nil {
			return err
		}
	}
	return sw.Close()
}

// TestShardWriterRejectsKeysReaderRejects: both writers apply the reader's
// per-edge rule (u < v < |V|) at append time. The rejection is sticky, and
// Close seals the edges accepted before it, so the file still reads.
func TestShardWriterRejectsKeysReaderRejects(t *testing.T) {
	good := []uint64{PackEdge(0, 1), PackEdge(0, 2)}
	for _, w := range []struct {
		name string
		open func(io.Writer, ShardInfo) (*ShardWriter, error)
	}{{"raw", NewShardWriter}, {"compressed", NewZShardWriter}} {
		for _, tc := range []struct {
			key     uint64
			wantErr string
		}{
			{1<<32 | 20, "endpoint 20 out of range"},
			{5<<32 | 3, "not canonical"},
			{7<<32 | 7, "not canonical"},
		} {
			t.Run(fmt.Sprintf("%s/%#x", w.name, tc.key), func(t *testing.T) {
				var buf bytes.Buffer
				sw, err := w.open(&buf, ShardInfo{NumVertices: 10, Index: 0, Count: 1})
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range good {
					if err := sw.AppendPacked(k); err != nil {
						t.Fatal(err)
					}
				}
				err = sw.AppendPacked(tc.key)
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("append of %#x: got %v, want error mentioning %q", tc.key, err, tc.wantErr)
				}
				if again := sw.AppendPacked(PackEdge(3, 4)); !errors.Is(again, err) {
					t.Fatalf("rejection not sticky: next append returned %v", again)
				}
				if cerr := sw.Close(); !errors.Is(cerr, err) {
					t.Fatalf("Close returned %v, want the rejection %v", cerr, err)
				}
				s, err := readShard(&buf)
				if err != nil {
					t.Fatalf("edges accepted before the rejection do not read: %v", err)
				}
				if !slices.Equal(s.Packed, good) {
					t.Fatalf("read %#x, want %#x", s.Packed, good)
				}
			})
		}
	}
}

func TestShardWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewShardWriter(&buf, ShardInfo{NumVertices: 6, Index: 2, Count: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{}
	for _, e := range testEdges() {
		if err := sw.AppendPacked(PackEdge(e.U, e.V)); err != nil {
			t.Fatal(err)
		}
		want = append(want, PackEdge(e.U, e.V))
	}
	if sw.NumWritten() != uint64(len(want)) {
		t.Fatalf("NumWritten = %d, want %d", sw.NumWritten(), len(want))
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := readShard(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVertices != 6 {
		t.Fatalf("NumVertices = %d", s.NumVertices)
	}
	if !slices.Equal(s.Packed, want) {
		t.Fatalf("packed edges differ: got %v want %v", s.Packed, want)
	}
}

func TestShardRoundTripAcrossChunkBoundaries(t *testing.T) {
	// More edges than one chunk, not a multiple of the chunk size: the
	// partial last chunk and the terminator must both round-trip.
	const n = shardChunkEdges*2 + 137
	var buf bytes.Buffer
	sw, err := NewShardWriter(&buf, ShardInfo{NumVertices: 1 << 20, Index: 0, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		u := Vertex(i % 1000)
		v := Vertex(1000 + i%7000)
		if err := sw.AppendPacked(PackEdge(u, v)); err != nil {
			t.Fatal(err)
		}
		want = append(want, PackEdge(u, v))
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	sr, err := NewShardReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	chunks := 0
	for {
		chunk, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk) == 0 || len(chunk) > maxShardChunkEdges {
			t.Fatalf("chunk size %d out of bounds", len(chunk))
		}
		got = append(got, chunk...)
		chunks++
	}
	if chunks != 3 {
		t.Fatalf("chunks = %d, want 3", chunks)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("streamed edges differ (%d vs %d)", len(got), len(want))
	}
	// EOF must be sticky.
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("Next after EOF = %v", err)
	}
}

func TestShardsOfCoversGraphExactly(t *testing.T) {
	g := FromEdges(0, testEdges())
	for _, p := range []int{1, 2, 3, 5, 16} {
		shards := ShardsOf(g, p)
		if len(shards) != p {
			t.Fatalf("p=%d: got %d shards", p, len(shards))
		}
		var all []uint64
		for _, s := range shards {
			if s.NumVertices != g.NumVertices() {
				t.Fatalf("p=%d: shard |V| %d != %d", p, s.NumVertices, g.NumVertices())
			}
			all = append(all, s.Packed...)
		}
		if int64(len(all)) != g.NumEdges() {
			t.Fatalf("p=%d: shards hold %d edges, graph has %d", p, len(all), g.NumEdges())
		}
		for i, e := range g.Edges() {
			if all[i] != PackEdge(e.U, e.V) {
				t.Fatalf("p=%d: edge %d mismatch", p, i)
			}
		}
	}
}

func TestFromPackedMatchesFromEdges(t *testing.T) {
	raw := testEdges()
	raw = append(raw, Edge{2, 2}, Edge{5, 1}) // self loop + non-canonical
	packed := make([]uint64, len(raw))
	for i, e := range raw {
		packed[i] = uint64(e.U)<<32 | uint64(e.V) // deliberately unc canonicalized
	}
	a := FromEdges(0, raw)
	b := FromPacked(0, packed)
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape differs: %v vs %v", a, b)
	}
	if !slices.Equal(a.Edges(), b.Edges()) {
		t.Fatal("edge lists differ")
	}
	for v := Vertex(0); v < a.NumVertices(); v++ {
		if !slices.Equal(a.Neighbors(v), b.Neighbors(v)) {
			t.Fatalf("neighbors of %d differ", v)
		}
	}
}

func TestShardSortDedup(t *testing.T) {
	s := &Shard{NumVertices: 10, Packed: []uint64{
		PackEdge(3, 4), PackEdge(0, 1), PackEdge(3, 4), PackEdge(0, 1), PackEdge(2, 9),
	}}
	s.SortDedup()
	want := []uint64{PackEdge(0, 1), PackEdge(2, 9), PackEdge(3, 4)}
	if !slices.Equal(s.Packed, want) {
		t.Fatalf("got %v want %v", s.Packed, want)
	}

	// Ascending input is only compacted, in its own array; strictly
	// ascending input is left as it is, without an allocation.
	asc := []uint64{PackEdge(0, 1), PackEdge(0, 1), PackEdge(2, 9), PackEdge(3, 4)}
	s = &Shard{NumVertices: 10, Packed: asc}
	s.SortDedup()
	if !slices.Equal(s.Packed, want) || &s.Packed[0] != &asc[0] {
		t.Fatalf("ascending input: got %v in a new array %v, want %v in place", s.Packed, &s.Packed[0] != &asc[0], want)
	}
	if allocs := testing.AllocsPerRun(10, s.SortDedup); allocs != 0 || !slices.Equal(s.Packed, want) {
		t.Fatalf("strictly ascending input: %v allocations, edges %v", allocs, s.Packed)
	}
}

func TestWriteShardReadShard(t *testing.T) {
	s := &Shard{NumVertices: 100, Packed: []uint64{PackEdge(1, 2), PackEdge(5, 99)}}
	var buf bytes.Buffer
	if err := writeShard(&buf, s, 1, 3); err != nil {
		t.Fatal(err)
	}
	sr, err := NewShardReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info := sr.info; info.Index != 1 || info.Count != 3 || info.NumVertices != 100 {
		t.Fatalf("info = %+v", info)
	}
	got, err := readShard(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Packed, s.Packed) {
		t.Fatalf("round trip lost edges: %v", got.Packed)
	}
}
