package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"github.com/distributedne/dne/internal/graph"
)

// Snapshot persistence: a versioned binary encoding of the shard stores and
// routing table, so a server restarts without re-reading the graph or
// re-running a partitioner. Follows the repository's "DNE1"/"DNP1" header
// idiom ("DNS1").
//
// Layout (all little-endian):
//
//	magic u32, version u32, numVertices u32, numShards u32, numEdges u64
//	master table: numVertices × u32
//	per shard: numLocal u32, vertex ids numLocal × u32 (strictly increasing),
//	           local degrees numLocal × u32, targets Σdeg × u32
//
// The replica index is not serialized. On read, every shard is rebuilt
// through BuildFromShards' shard builder from the u < w half of its
// adjacency and must come out identical to what the file holds, so a shard
// that builder could never emit (asymmetric, duplicate or self-loop
// adjacency, unsorted targets) is rejected; the replica index, slots
// included, is then derived from the rebuilt shards exactly as
// BuildFromShards derives it.

// snapMagic identifies the store snapshot format ("DNS1").
const snapMagic = 0x444e5331

// snapVersion is bumped on incompatible layout changes.
const snapVersion = 1

// maxPrealloc caps slice preallocation driven by untrusted header counts;
// larger slices grow incrementally so a corrupt count fails on short read
// instead of attempting a huge allocation.
const maxPrealloc = 1 << 16

// pageEntries is the number of u32 values buffered per I/O batch (32 KiB).
const pageEntries = 8192

// capCount bounds a header-declared element count for preallocation.
func capCount(n uint64) int {
	if n > maxPrealloc {
		return maxPrealloc
	}
	return int(n)
}

// u32Writer batches u32 values into page-sized writes with a sticky error.
type u32Writer struct {
	w   io.Writer
	buf []byte
	err error
}

func newU32Writer(w io.Writer) *u32Writer {
	return &u32Writer{w: w, buf: make([]byte, 0, pageEntries*4)}
}

func (pw *u32Writer) u32(x uint32) {
	if pw.err != nil {
		return
	}
	pw.buf = binary.LittleEndian.AppendUint32(pw.buf, x)
	if len(pw.buf) == cap(pw.buf) {
		pw.flush()
	}
}

func (pw *u32Writer) flush() {
	if pw.err != nil || len(pw.buf) == 0 {
		return
	}
	_, pw.err = pw.w.Write(pw.buf)
	pw.buf = pw.buf[:0]
}

// readU32s streams count little-endian u32 values from r in page-sized
// chunks, calling fn for each; fn errors abort the read.
func readU32s(r io.Reader, count uint64, fn func(i uint64, x uint32) error) error {
	var page [pageEntries * 4]byte
	var done uint64
	for done < count {
		chunk := uint64(pageEntries)
		if rem := count - done; rem < chunk {
			chunk = rem
		}
		b := page[:chunk*4]
		if _, err := io.ReadFull(r, b); err != nil {
			return err
		}
		for i := uint64(0); i < chunk; i++ {
			if err := fn(done+i, binary.LittleEndian.Uint32(b[i*4:])); err != nil {
				return err
			}
		}
		done += chunk
	}
	return nil
}

// WriteSnapshot serializes st.
func WriteSnapshot(w io.Writer, st *Store) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], snapMagic)
	binary.LittleEndian.PutUint32(hdr[4:], snapVersion)
	binary.LittleEndian.PutUint32(hdr[8:], st.numVertices)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(st.shards)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(st.numEdges))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	pw := newU32Writer(bw)
	for _, m := range st.master {
		pw.u32(uint32(m))
	}
	for _, sh := range st.shards {
		pw.u32(uint32(len(sh.verts)))
		for _, v := range sh.verts {
			pw.u32(v)
		}
		for l := range sh.verts {
			pw.u32(uint32(sh.off[l+1] - sh.off[l]))
		}
		for _, t := range sh.tgt {
			pw.u32(t)
		}
	}
	pw.flush()
	if pw.err != nil {
		return pw.err
	}
	return bw.Flush()
}

// ReadSnapshot reconstructs a Store from the format written by
// WriteSnapshot, reading r to its end. Every id, count and offset is
// validated and every shard rebuilt, so a truncated, padded or hostile file
// errors instead of producing a store WriteSnapshot would not encode to the
// same bytes.
func ReadSnapshot(r io.Reader) (*Store, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("store: reading snapshot header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != snapMagic {
		return nil, fmt.Errorf("store: bad snapshot magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != snapVersion {
		return nil, fmt.Errorf("store: unsupported snapshot version %d (want %d)", v, snapVersion)
	}
	n := binary.LittleEndian.Uint32(hdr[8:])
	numShards := binary.LittleEndian.Uint32(hdr[12:])
	numEdges := binary.LittleEndian.Uint64(hdr[16:])
	if numShards == 0 || numShards > 1<<24 {
		return nil, fmt.Errorf("store: snapshot shard count %d out of range", numShards)
	}
	if numEdges > uint64(n)*uint64(n) {
		return nil, fmt.Errorf("store: snapshot edge count %d impossible for %d vertices", numEdges, n)
	}
	st := &Store{
		numVertices: n,
		numEdges:    int64(numEdges),
		shards:      make([]*shard, 0, capCount(uint64(numShards))),
		master:      make([]int32, 0, capCount(uint64(n))),
	}
	err := readU32s(br, uint64(n), func(i uint64, x uint32) error {
		if x >= numShards {
			return fmt.Errorf("store: master[%d] = %d out of range [0,%d)", i, x, numShards)
		}
		st.master = append(st.master, int32(x))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: reading master table: %w", err)
	}

	b := newShardBuilder(n)
	var totalEdges uint64
	for s := uint32(0); s < numShards; s++ {
		raw, err := readShard(br, s, n, numEdges-totalEdges)
		if err != nil {
			return nil, err
		}
		sh, err := b.build(int(s), halfEdges(raw))
		if err != nil {
			return nil, err
		}
		if !slices.Equal(sh.verts, raw.verts) || !slices.Equal(sh.off, raw.off) || !slices.Equal(sh.tgt, raw.tgt) {
			return nil, fmt.Errorf("store: shard %d adjacency is not the CSR of its edges", s)
		}
		totalEdges += uint64(sh.edges)
		st.shards = append(st.shards, sh)
	}
	if totalEdges != numEdges {
		return nil, fmt.Errorf("store: shards hold %d edges, header declares %d", totalEdges, numEdges)
	}
	if _, err := br.ReadByte(); err == nil {
		return nil, fmt.Errorf("store: trailing data after the last shard")
	} else if err != io.EOF {
		return nil, fmt.Errorf("store: reading snapshot end: %w", err)
	}

	// Derive the replica index from the shard vertex lists, then check the
	// routing table is consistent with it: a covered vertex's master must
	// be one of its replicas.
	st.indexReplicas()
	for v := uint32(0); v < n; v++ {
		reps := st.Replicas(v)
		if len(reps) > 0 && !slices.Contains(reps, st.master[v]) {
			return nil, fmt.Errorf("store: master %d of vertex %d is not a replica shard", st.master[v], v)
		}
	}
	return st.serve(), nil
}

// readShard reads shard s's vertex ids, local degrees and targets as the
// file holds them, checking ids against the n vertices and the adjacency
// total against the edges the header has left to place (maxEdges).
func readShard(r io.Reader, s, n uint32, maxEdges uint64) (*shard, error) {
	var cnt [4]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return nil, fmt.Errorf("store: reading shard %d size: %w", s, err)
	}
	numLocal := binary.LittleEndian.Uint32(cnt[:])
	if uint64(numLocal) > uint64(n) {
		return nil, fmt.Errorf("store: shard %d declares %d vertices, graph has %d", s, numLocal, n)
	}
	sh := &shard{id: int(s), verts: make([]graph.Vertex, 0, capCount(uint64(numLocal)))}
	err := readU32s(r, uint64(numLocal), func(i uint64, x uint32) error {
		if x >= n {
			return fmt.Errorf("vertex id %d out of range [0,%d)", x, n)
		}
		if len(sh.verts) > 0 && x <= sh.verts[len(sh.verts)-1] {
			return fmt.Errorf("vertex ids not strictly increasing at %d", x)
		}
		sh.verts = append(sh.verts, x)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: reading shard %d vertices: %w", s, err)
	}
	sh.off = make([]int64, 1, capCount(uint64(numLocal)+1))
	err = readU32s(r, uint64(numLocal), func(i uint64, x uint32) error {
		sh.off = append(sh.off, sh.off[len(sh.off)-1]+int64(x))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: reading shard %d degrees: %w", s, err)
	}
	total := uint64(sh.off[len(sh.off)-1])
	if total%2 != 0 {
		return nil, fmt.Errorf("store: shard %d has odd adjacency total %d", s, total)
	}
	if total/2 > maxEdges {
		return nil, fmt.Errorf("store: shard edges exceed declared total")
	}
	sh.tgt = make([]graph.Vertex, 0, capCount(total))
	err = readU32s(r, total, func(i uint64, x uint32) error {
		if x >= n {
			return fmt.Errorf("target id %d out of range [0,%d)", x, n)
		}
		sh.tgt = append(sh.tgt, x)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: reading shard %d adjacency: %w", s, err)
	}
	return sh, nil
}

// halfEdges returns the packed u < w half of a shard's adjacency in the
// order it is stored: for any shard the builder emits, its canonical edge
// list, sorted.
func halfEdges(sh *shard) []uint64 {
	packed := make([]uint64, 0, len(sh.tgt)/2)
	for l, u := range sh.verts {
		for _, w := range sh.neighborsOf(uint32(l)) {
			if u < w {
				packed = append(packed, graph.PackEdge(u, w))
			}
		}
	}
	return packed
}
