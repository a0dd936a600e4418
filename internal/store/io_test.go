package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

func TestSnapshotRoundTrip(t *testing.T) {
	for name, g := range testGraphs(t) {
		orig := buildRandom(t, g, 5, 21)
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, orig); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if got.NumVertices() != orig.NumVertices() || got.NumEdges() != orig.NumEdges() ||
			got.NumShards() != orig.NumShards() || got.TotalReplicas() != orig.TotalReplicas() {
			t.Fatalf("%s: shape mismatch after round trip", name)
		}
		for v := graph.Vertex(0); v < g.NumVertices(); v++ {
			mo, _ := orig.Master(v)
			mg, _ := got.Master(v)
			if mo != mg {
				t.Fatalf("%s: master(%d) %d != %d", name, v, mg, mo)
			}
			do, _ := orig.Degree(v)
			dg, _ := got.Degree(v)
			if do != dg {
				t.Fatalf("%s: degree(%d) %d != %d", name, v, dg, do)
			}
		}
		// Traversals agree after restore.
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 5; trial++ {
			src := graph.Vertex(rng.Intn(int(g.NumVertices())))
			a, err := orig.KHop(context.Background(), src, 3)
			if err != nil {
				t.Fatal(err)
			}
			b, err := got.KHop(context.Background(), src, 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Vertices) != len(b.Vertices) || a.CrossShardHops != b.CrossShardHops {
				t.Fatalf("%s: khop diverged after round trip", name)
			}
			for i := range a.Vertices {
				if a.Vertices[i] != b.Vertices[i] || a.Depths[i] != b.Depths[i] {
					t.Fatalf("%s: khop vertex %d diverged", name, i)
				}
			}
		}
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("definitely not a snapshot")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadSnapshot(strings.NewReader("")); err == nil {
		t.Error("empty accepted")
	}
}

func TestSnapshotRejectsTruncation(t *testing.T) {
	g := gen.ER(300, 1200, 3)
	st := buildRandom(t, g, 4, 3)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, st); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must error, never yield a store.
	for _, cut := range []int{1, 10, 23, 24, 100, len(full) / 2, len(full) - 1} {
		if _, err := ReadSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func corruptAt(t *testing.T, mutate func(b []byte)) error {
	t.Helper()
	g := gen.ER(100, 400, 8)
	st := buildRandom(t, g, 4, 8)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, st); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	mutate(b)
	_, err := ReadSnapshot(bytes.NewReader(b))
	return err
}

func TestSnapshotRejectsCorruptHeader(t *testing.T) {
	cases := map[string]func(b []byte){
		"bad magic":   func(b []byte) { b[0] = 'X' },
		"bad version": func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 99) },
		"zero shards": func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 0) },
		"huge shards": func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 1<<31-1) },
		// Hostile edge count: the reader must fail on the count mismatch,
		// not allocate per the header.
		"huge edges":        func(b []byte) { binary.LittleEndian.PutUint64(b[16:], 1<<40) },
		"impossible edges":  func(b []byte) { binary.LittleEndian.PutUint64(b[16:], 1<<62) },
		"master out of rng": func(b []byte) { binary.LittleEndian.PutUint32(b[24:], 1<<20) },
	}
	for name, mutate := range cases {
		if err := corruptAt(t, mutate); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSnapshotRejectsHostileVertexCount(t *testing.T) {
	// A header that claims 2^32-1 vertices over a tiny body must error from
	// a short read without preallocating gigabytes (capped prealloc).
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], snapMagic)
	binary.LittleEndian.PutUint32(hdr[4:], snapVersion)
	binary.LittleEndian.PutUint32(hdr[8:], 1<<32-1)
	binary.LittleEndian.PutUint32(hdr[12:], 4)
	binary.LittleEndian.PutUint64(hdr[16:], 10)
	body := append(hdr[:], make([]byte, 64)...)
	if _, err := ReadSnapshot(bytes.NewReader(body)); err == nil {
		t.Error("hostile vertex count accepted")
	}
}

// rawShard is one shard as a DNS1 file holds it: vertex ids, local degrees
// and the concatenated targets.
type rawShard struct {
	verts, degs, tgt []uint32
}

// craftSnapshot encodes a DNS1 file by hand, every vertex mastered on shard
// 0 and the header's edge count half the adjacency total, so the only thing
// wrong with it is what the shards say.
func craftSnapshot(n uint32, shards ...rawShard) []byte {
	var total uint64
	for _, sh := range shards {
		total += uint64(len(sh.tgt))
	}
	b := binary.LittleEndian.AppendUint32(nil, snapMagic)
	b = binary.LittleEndian.AppendUint32(b, snapVersion)
	b = binary.LittleEndian.AppendUint32(b, n)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(shards)))
	b = binary.LittleEndian.AppendUint64(b, total/2)
	b = append(b, make([]byte, 4*n)...)
	for _, sh := range shards {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(sh.verts)))
		for _, xs := range [][]uint32{sh.verts, sh.degs, sh.tgt} {
			for _, x := range xs {
				b = binary.LittleEndian.AppendUint32(b, x)
			}
		}
	}
	return b
}

// inconsistentSnapshots are well-framed DNS1 files whose shard adjacency no
// builder emits: every count and id is in range, only the CSR is wrong.
func inconsistentSnapshots() map[string][]byte {
	return map[string][]byte{
		// 2 lists 0 twice, 0 lists 1 but 1 does not list 0: read back,
		// Neighbors(2) would answer [0 0] and Neighbors(0) [1].
		"asymmetric": craftSnapshot(3, rawShard{
			verts: []uint32{0, 1, 2}, degs: []uint32{1, 1, 2}, tgt: []uint32{1, 2, 0, 0},
		}),
		"self loop": craftSnapshot(2, rawShard{
			verts: []uint32{0, 1}, degs: []uint32{3, 1}, tgt: []uint32{0, 0, 1, 0},
		}),
		"duplicate edge": craftSnapshot(2, rawShard{
			verts: []uint32{0, 1}, degs: []uint32{2, 2}, tgt: []uint32{1, 1, 0, 0},
		}),
	}
}

// TestSnapshotRejectsInconsistentAdjacency: a shard whose vertex list,
// degrees or target order differ from the CSR its own u < w edges build is
// refused, not served.
func TestSnapshotRejectsInconsistentAdjacency(t *testing.T) {
	for name, b := range inconsistentSnapshots() {
		if _, err := ReadSnapshot(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Unsorted targets over a valid edge set are refused too: the order is
	// part of the format.
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, buildRandom(t, gen.Star(8), 1, 1)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadSnapshot(bytes.NewReader(b)); err != nil {
		t.Fatalf("star snapshot refused before the swap: %v", err)
	}
	// The hub's targets 1..7 start after the header, the master table (8
	// entries) and the shard's size, ids and degrees (1 + 8 + 8 entries).
	at := 24 + 4*(8+1+8+8)
	if binary.LittleEndian.Uint32(b[at:]) != 1 || binary.LittleEndian.Uint32(b[at+4:]) != 2 {
		t.Fatalf("hub targets not at byte %d", at)
	}
	binary.LittleEndian.PutUint32(b[at:], 2)
	binary.LittleEndian.PutUint32(b[at+4:], 1)
	if _, err := ReadSnapshot(bytes.NewReader(b)); err == nil {
		t.Error("unsorted hub targets accepted")
	}
}
