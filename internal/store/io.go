package store

import (
	"fmt"
	"io"
	"slices"

	"github.com/distributedne/dne/internal/binio"
	"github.com/distributedne/dne/internal/graph"
)

// Snapshot persistence: a versioned binary encoding of the shard stores and
// routing table, so a server restarts without re-reading the graph or
// re-running a partitioner. Follows the repository's binio fixed-layout
// idiom under the magic "DNS1".
//
// Layout (all little-endian):
//
//	magic u32, version u32, numVertices u32, numShards u32, numEdges u64
//	master table: numVertices × u32
//	per shard: numLocal u32, vertex ids numLocal × u32 (strictly increasing),
//	           local degrees numLocal × u32, targets Σdeg × u32
//
// Paging and the cap on preallocation from a decoded count come from
// internal/binio; DNS1 carries no digest trailer.
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

// WriteSnapshot serializes st.
func WriteSnapshot(w io.Writer, st *Store) error {
	bw := binio.NewWriter(w)
	bw.U32(snapMagic)
	bw.U32(snapVersion)
	bw.U32(st.numVertices)
	bw.U32(uint32(len(st.shards)))
	bw.U64(uint64(st.numEdges))
	binio.Put(bw, st.master)
	for _, sh := range st.shards {
		bw.U32(uint32(len(sh.verts)))
		binio.Put(bw, sh.verts)
		for l := range sh.verts {
			bw.U32(uint32(sh.off[l+1] - sh.off[l]))
		}
		binio.Put(bw, sh.tgt)
	}
	return bw.Flush()
}

// ReadSnapshot reconstructs a Store from the format written by
// WriteSnapshot, reading r to its end. Every id, count and offset is
// validated and every shard rebuilt, so a truncated, padded or hostile file
// errors instead of producing a store WriteSnapshot would not encode to the
// same bytes.
func ReadSnapshot(r io.Reader) (*Store, error) {
	br := binio.NewReader(r)
	magic, version, n, numShards, numEdges := br.U32(), br.U32(), br.U32(), br.U32(), br.U64()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("store: reading snapshot header: %w", err)
	}
	if magic != snapMagic {
		return nil, fmt.Errorf("store: bad snapshot magic")
	}
	if version != snapVersion {
		return nil, fmt.Errorf("store: unsupported snapshot version %d (want %d)", version, snapVersion)
	}
	if numShards == 0 || numShards > 1<<24 {
		return nil, fmt.Errorf("store: snapshot shard count %d out of range", numShards)
	}
	if numEdges > uint64(n)*uint64(n) {
		return nil, fmt.Errorf("store: snapshot edge count %d impossible for %d vertices", numEdges, n)
	}
	st := &Store{
		numVertices: n,
		numEdges:    int64(numEdges),
		shards:      make([]*shard, 0, binio.Cap(uint64(numShards))),
		master:      binio.Slab[int32](br, uint64(n)),
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("store: reading master table: %w", err)
	}
	for v, m := range st.master {
		if uint32(m) >= numShards {
			return nil, fmt.Errorf("store: master[%d] = %d out of range [0,%d)", v, uint32(m), numShards)
		}
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
	if err := br.End(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
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
func readShard(r *binio.Reader, s, n uint32, maxEdges uint64) (*shard, error) {
	numLocal := r.U32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("store: reading shard %d size: %w", s, err)
	}
	if uint64(numLocal) > uint64(n) {
		return nil, fmt.Errorf("store: shard %d declares %d vertices, graph has %d", s, numLocal, n)
	}
	sh := &shard{id: int(s), verts: binio.Slab[graph.Vertex](r, uint64(numLocal))}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("store: reading shard %d vertices: %w", s, err)
	}
	for i, x := range sh.verts {
		if x >= n {
			return nil, fmt.Errorf("store: shard %d vertex id %d out of range [0,%d)", s, x, n)
		}
		if i > 0 && x <= sh.verts[i-1] {
			return nil, fmt.Errorf("store: shard %d vertex ids not strictly increasing at %d", s, x)
		}
	}
	deg := binio.Slab[uint32](r, uint64(numLocal))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("store: reading shard %d degrees: %w", s, err)
	}
	sh.off = make([]int64, len(deg)+1)
	for l, d := range deg {
		sh.off[l+1] = sh.off[l] + int64(d)
	}
	total := uint64(sh.off[len(deg)])
	if total%2 != 0 {
		return nil, fmt.Errorf("store: shard %d has odd adjacency total %d", s, total)
	}
	if total/2 > maxEdges {
		return nil, fmt.Errorf("store: shard edges exceed declared total")
	}
	if sh.tgt = binio.Slab[graph.Vertex](r, total); r.Err() != nil {
		return nil, fmt.Errorf("store: reading shard %d adjacency: %w", s, r.Err())
	}
	for _, x := range sh.tgt {
		if x >= n {
			return nil, fmt.Errorf("store: shard %d target id %d out of range [0,%d)", s, x, n)
		}
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
