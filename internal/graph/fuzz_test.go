package graph

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// Fuzz targets for the two decoders that face bytes from disk or the
// network: the shard reader (raw EShard and compressed ESZ1, one container
// with two chunk codecs) and the DNE1 binary edge list. Both already carry
// hostile-input test tables; fuzzing explores the space between those
// hand-written mutations. The contract under fuzzing is the hardening
// contract: any byte string either decodes to in-range canonical edges or
// returns an error — no panics, no unbounded allocation (chunk caps bound
// every make), no silently out-of-range endpoints.
//
// Run locally with:
//
//	go test -run='^$' -fuzz=FuzzShardReader -fuzztime=30s ./internal/graph
//	go test -run='^$' -fuzz=FuzzBinarySource -fuzztime=30s ./internal/graph

// fuzzSeedZShard builds a small valid ESZ1 file via the real writer so the
// fuzzer starts from well-formed structure.
func fuzzSeedZShard() []byte {
	var buf bytes.Buffer
	zw, err := NewZShardWriter(&buf, ShardInfo{NumVertices: 64, NumEdges: 3, Index: 0, Count: 1})
	if err != nil {
		panic(err)
	}
	for _, e := range []Edge{{1, 2}, {1, 3}, {5, 9}} {
		if err := zw.Append(e.U, e.V); err != nil {
			panic(err)
		}
	}
	if err := zw.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzShardReader(f *testing.F) {
	seed := fuzzSeedZShard()
	f.Add(seed)
	// Header corruptions, truncations, over-declared counts, and truncated
	// and overflowing varints of the ESZ1 file.
	badMagic := bytes.Clone(seed)
	binary.LittleEndian.PutUint32(badMagic[0:], 0xdeadbeef)
	f.Add(badMagic)
	badVersion := bytes.Clone(seed)
	binary.LittleEndian.PutUint32(badVersion[4:], 99)
	f.Add(badVersion)
	f.Add(seed[:len(seed)-5])                                               // torn tail
	f.Add(seed[:17])                                                        // header only
	f.Add(zFile(64, ^uint64(0), zChunk(1<<30, uvarints(1, 0))))             // over-declared chunk
	f.Add(zFile(64, ^uint64(0), zChunk(1, []byte{0x80})))                   // truncated varint
	f.Add(zFile(64, ^uint64(0), zChunk(1, bytes.Repeat([]byte{0xff}, 10)))) // overflowing varint
	// A valid raw file, then both hardening tables.
	f.Add(validShardBytes(f, 64, []Edge{{0, 1}, {1, 2}, {2, 63}}))
	for _, tc := range append(rawHostileShards(f), zHostileShards()...) {
		f.Add(tc.build())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := NewShardReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		info := sr.Info()
		var edges, last uint64
		for {
			chunk, err := sr.Next()
			if err != nil {
				if err != io.EOF && err.Error() == "" {
					t.Fatalf("empty error message")
				}
				return
			}
			for _, k := range chunk {
				u, v := k>>32, k&0xffffffff
				if u >= v {
					t.Fatalf("non-canonical edge (%d,%d) decoded without error", u, v)
				}
				if v >= uint64(info.NumVertices) {
					t.Fatalf("endpoint %d out of declared range %d", v, info.NumVertices)
				}
				if sr.codec.sorted && k < last {
					t.Fatalf("key %#x after %#x in a sorted format", k, last)
				}
				last = k
			}
			edges += uint64(len(chunk))
			if edges > 1<<24 {
				t.Fatalf("fuzz input decoded past %d edges; runaway stream", edges)
			}
		}
	})
}

// fuzzSeedBinary builds a small valid DNE1 file via the real writer.
func fuzzSeedBinary() []byte {
	edges := make([]Edge, 0, 16)
	for i := uint32(0); i < 16; i++ {
		edges = append(edges, Edge{i, i + 1})
	}
	g := FromEdges(0, edges)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzBinarySource(f *testing.F) {
	seed := fuzzSeedBinary()
	f.Add(seed)
	// The ReadBinary hardening table's core mutations as seeds: truncation,
	// header lies (huge |E|, shrunk |V|), and garbage.
	f.Add(seed[:len(seed)-3])
	f.Add(seed[:16])
	hugeEdges := bytes.Clone(seed)
	binary.LittleEndian.PutUint64(hugeEdges[8:], 1<<60)
	f.Add(hugeEdges)
	smallVerts := bytes.Clone(seed)
	binary.LittleEndian.PutUint32(smallVerts[4:], 2)
	f.Add(smallVerts)
	f.Add([]byte("not a DNE1 file at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful decode must be internally consistent: every edge
		// endpoint within range and the degree sum equal to 2|E|.
		n := g.NumVertices()
		var degSum int64
		for v := uint32(0); v < uint32(n); v++ {
			for _, u := range g.Neighbors(v) {
				if int64(u) >= int64(n) {
					t.Fatalf("neighbor %d out of range %d", u, n)
				}
			}
			degSum += g.Degree(v)
		}
		if degSum != 2*g.NumEdges() {
			t.Fatalf("degree sum %d != 2|E| = %d", degSum, 2*g.NumEdges())
		}
	})
}
