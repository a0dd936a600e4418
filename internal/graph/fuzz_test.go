package graph

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// Fuzz target for the decoder that faces graph bytes from disk: the shard
// reader (raw EShard and compressed ESZ1, one container with two chunk
// codecs), alone and as the one file of a shard directory. Both already
// carry hostile-input test tables; fuzzing explores the space between
// those hand-written mutations. The contract under fuzzing is the
// hardening contract: any byte string either decodes to in-range canonical
// edges or returns an error — no panics, no unbounded allocation (chunk
// caps bound every make), no silently out-of-range endpoints, and no
// directory accepted whose vertex claim its edges do not back.
//
// Run locally with:
//
//	go test -run='^$' -fuzz=FuzzShardReader -fuzztime=30s ./internal/graph

// fuzzSeedZShard builds a small valid ESZ1 file via the real writer so the
// fuzzer starts from well-formed structure.
func fuzzSeedZShard() []byte {
	var buf bytes.Buffer
	zw, err := NewZShardWriter(&buf, ShardInfo{NumVertices: 64, NumEdges: 3, Index: 0, Count: 1})
	if err != nil {
		panic(err)
	}
	for _, e := range []Edge{{1, 2}, {1, 3}, {5, 9}} {
		if err := zw.AppendPacked(PackEdge(e.U, e.V)); err != nil {
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
	// A one-edge file claiming 2^32-16 vertex ids: a shard directory of it
	// must be rejected before any consumer sizes O(|V|) state.
	hostileClaim, err := os.ReadFile(filepath.Join(oneFileShardDir(f, 0xFFFFFFF0, []Edge{{0, 1}}), ShardFileName(0, 1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hostileClaim)

	f.Fuzz(func(t *testing.T, data []byte) {
		checkShardDir(t, data)
		sr, err := NewShardReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		info := sr.info
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

// checkShardDir writes data as the one file of a shard directory and opens
// it with both directory readers. A directory counts as accepted by
// DirSource when it opens and one full pass drains without error; both
// readers must agree on acceptance, yield the same edges, and accept only
// a vertex claim those edges back.
func checkShardDir(t *testing.T, data []byte) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ShardFileName(0, 1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	sh, rerr := ReadShardDir(dir, nil)
	var streamed []uint64
	var numVertices uint32
	src, derr := DirSource(dir)
	if derr == nil {
		numVertices = src.Info().NumVertices
		if !VertexClaimOK(uint64(numVertices), uint64(src.Info().NumEdges)) {
			t.Fatalf("DirSource opened a claim of %d ids over %d edges", numVertices, src.Info().NumEdges)
		}
		streamed, derr = drainKeys(src)
	}
	if (rerr == nil) != (derr == nil) {
		t.Fatalf("ReadShardDir error %v, DirSource error %v", rerr, derr)
	}
	if rerr != nil {
		return
	}
	if !VertexClaimOK(uint64(sh.NumVertices), uint64(len(sh.Packed))) {
		t.Fatalf("ReadShardDir accepted a claim of %d ids over %d edges", sh.NumVertices, len(sh.Packed))
	}
	if sh.NumVertices != numVertices || !slices.Equal(sh.Packed, streamed) {
		t.Fatalf("ReadShardDir (|V| %d, %d edges) and DirSource (|V| %d, %d edges) disagree",
			sh.NumVertices, len(sh.Packed), numVertices, len(streamed))
	}
}

// drainKeys collects one full pass of src.
func drainKeys(src Source) ([]uint64, error) {
	st, err := src.Edges()
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var keys []uint64
	for {
		chunk, _, err := st.Next()
		if err == io.EOF {
			return keys, nil
		}
		if err != nil {
			return nil, err
		}
		keys = append(keys, chunk...)
	}
}
