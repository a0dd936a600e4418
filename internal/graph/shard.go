package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"github.com/distributedne/dne/internal/dsa"
)

// EShard is the sharded on-disk edge format: the unit of input for a
// distributed run, so that no rank ever has to hold (or regenerate) the full
// graph. A shard file holds one rank's slice of the raw edge stream as
// packed uint64 canonical edges, framed into bounded chunks so both the
// writer and the reader run in O(chunk) memory regardless of graph scale.
//
// Layout (all little-endian):
//
//	header (28 bytes): magic "ESH1", version, |V| (global), shard index,
//	                   shard count, declared edge count (or unknown sentinel)
//	chunks:            uint32 edge count in (0, maxShardChunkEdges], then
//	                   count packed uint64 edges (u<<32|v with u < v)
//	terminator:        uint32 zero, then a uint64 footer with the total edge
//	                   count actually written
//
// The footer lets a streaming writer (which cannot seek back to patch the
// header) still give readers an end-to-end truncation check, and the
// per-chunk counts bound every allocation the reader makes against a
// hostile or corrupt file.
const (
	shardMagic   = 0x45534831 // "ESH1"
	shardVersion = 1

	// unknownEdgeCount in the header means the shard was streamed and the
	// authoritative count is in the footer.
	unknownEdgeCount = ^uint64(0)

	// shardChunkEdges is the writer's flush granularity (64 KiB of payload).
	shardChunkEdges = 8192

	// maxShardChunkEdges caps the chunk size a reader will accept; a hostile
	// chunk length past this bound errors instead of driving a huge
	// allocation (512 KiB of payload).
	maxShardChunkEdges = 1 << 16
)

// ShardRoute returns the shard a raw edge is routed to when writing a
// sharded graph: a strong hash of the canonical key, so shards are balanced
// and duplicate samples of the same edge land in the same shard. Any
// disjoint routing works for correctness (the distributed shuffle re-routes
// by grid owner and deduplicates), but a fixed one keeps shard files
// reproducible.
func ShardRoute(k uint64, count uint32) uint32 {
	// splitmix64 finalizer (public-domain constants).
	k += 0x9e3779b97f4a7c15
	k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9
	k = (k ^ (k >> 27)) * 0x94d049bb133111eb
	k ^= k >> 31
	return uint32(k % uint64(count))
}

// PackEdge packs an undirected edge into its canonical uint64 key
// (min<<32 | max). The ascending order of packed keys is exactly the
// lexicographic (U, V) order of canonical edges.
func PackEdge(u, v Vertex) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// UnpackEdge is the inverse of PackEdge.
func UnpackEdge(k uint64) Edge {
	return Edge{U: Vertex(k >> 32), V: Vertex(k)}
}

// ShardInfo describes one shard's place in a sharded graph.
type ShardInfo struct {
	NumVertices uint32 // global |V|
	Index       uint32 // this shard's index in [0, Count)
	Count       uint32 // number of shards the graph was split into
	NumEdges    uint64 // declared edge count; unknown for streamed shards
}

func (si ShardInfo) validate() error {
	if si.Count == 0 {
		return fmt.Errorf("graph: shard count must be positive")
	}
	if si.Index >= si.Count {
		return fmt.Errorf("graph: shard index %d out of range [0,%d)", si.Index, si.Count)
	}
	return nil
}

// ShardWriter streams packed edges into the EShard format. Memory use is one
// chunk regardless of how many edges are appended; Close writes the
// terminator and footer.
type ShardWriter struct {
	bw    *bufio.Writer
	buf   []byte
	inBuf int // edges currently buffered
	total uint64
	err   error
	info  ShardInfo
	f     *os.File // owned file (CreateShardFile / OpenShardAppend); closed by Close
}

// NewShardWriter writes the EShard header for info and returns a writer.
// The declared edge count is the streaming-unknown sentinel; readers use the
// footer written by Close.
func NewShardWriter(w io.Writer, info ShardInfo) (*ShardWriter, error) {
	if err := info.validate(); err != nil {
		return nil, err
	}
	sw := &ShardWriter{bw: bufio.NewWriter(w), buf: make([]byte, 0, shardChunkEdges*8), info: info}
	var hdr [28]byte
	binary.LittleEndian.PutUint32(hdr[0:], shardMagic)
	binary.LittleEndian.PutUint32(hdr[4:], shardVersion)
	binary.LittleEndian.PutUint32(hdr[8:], info.NumVertices)
	binary.LittleEndian.PutUint32(hdr[12:], info.Index)
	binary.LittleEndian.PutUint32(hdr[16:], info.Count)
	binary.LittleEndian.PutUint64(hdr[20:], unknownEdgeCount)
	if _, err := sw.bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: writing shard header: %w", err)
	}
	return sw, nil
}

// Append adds an undirected edge, canonicalizing it first. Self loops are
// dropped (as FromEdges would drop them) so shard consumers never see them.
func (sw *ShardWriter) Append(u, v Vertex) error {
	if u == v {
		return nil
	}
	return sw.AppendPacked(PackEdge(u, v))
}

// AppendPacked adds an already-packed canonical edge key.
func (sw *ShardWriter) AppendPacked(k uint64) error {
	if sw.err != nil {
		return sw.err
	}
	sw.buf = binary.LittleEndian.AppendUint64(sw.buf, k)
	sw.inBuf++
	sw.total++
	if sw.inBuf == shardChunkEdges {
		return sw.flushChunk()
	}
	return nil
}

func (sw *ShardWriter) flushChunk() error {
	if sw.inBuf == 0 {
		return sw.err
	}
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(sw.inBuf))
	if _, err := sw.bw.Write(cnt[:]); err != nil {
		sw.err = err
		return err
	}
	if _, err := sw.bw.Write(sw.buf); err != nil {
		sw.err = err
		return err
	}
	sw.buf = sw.buf[:0]
	sw.inBuf = 0
	return nil
}

// NumWritten returns the number of edges appended so far (for a reopened
// writer, the edges already in the file included).
func (sw *ShardWriter) NumWritten() uint64 { return sw.total }

// Info returns the shard placement the writer was created or reopened with.
func (sw *ShardWriter) Info() ShardInfo { return sw.info }

// Close flushes the final chunk and writes the terminator and footer. For
// writers that own their file (CreateShardFile, OpenShardAppend) the file is
// also closed. The writer is unusable afterwards.
func (sw *ShardWriter) Close() error {
	if err := sw.flushChunk(); err != nil {
		sw.closeFile()
		return err
	}
	var tail [12]byte // zero chunk count + uint64 footer
	binary.LittleEndian.PutUint64(tail[4:], sw.total)
	if _, err := sw.bw.Write(tail[:]); err != nil {
		sw.err = err
		sw.closeFile()
		return err
	}
	sw.err = fmt.Errorf("graph: shard writer closed")
	if err := sw.bw.Flush(); err != nil {
		sw.closeFile()
		return err
	}
	return sw.closeFile()
}

func (sw *ShardWriter) closeFile() error {
	if sw.f == nil {
		return nil
	}
	f := sw.f
	sw.f = nil
	return f.Close()
}

// CreateShardFile creates (or truncates) path and returns a writer that owns
// the file: Close writes the terminator and footer and closes it.
func CreateShardFile(path string, info ShardInfo) (*ShardWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	sw, err := NewShardWriter(f, info)
	if err != nil {
		f.Close()
		return nil, err
	}
	sw.f = f
	return sw, nil
}

// OpenShardAppend reopens an existing EShard file for appending: the frame
// structure is validated end to end exactly as a reader would (bounded chunk
// lengths, footer matching the summed chunk counts, nothing after the
// terminator — a truncated or tampered file errors instead of being extended),
// the 12-byte terminator+footer tail is cut off, and subsequent Appends
// continue the chunk sequence where the file left off. Close rewrites the
// terminator and footer with the new total. The header's declared edge count
// is rewritten to the streaming-unknown sentinel up front, so even a crash
// between open and close leaves a file whose header never contradicts its
// contents (readers detect the missing terminator instead).
func OpenShardAppend(path string) (*ShardWriter, error) {
	sf, err := peekShardFile(path, true)
	if err != nil {
		return nil, err
	}
	if sf.compressed {
		// Reopening a compressed shard for append would need the last chunk's
		// delta context restored; raw append streams (the live path) use
		// EShard, so keep this opener raw-only.
		return nil, fmt.Errorf("graph: %s: appending to compressed (ESZ1) shards is not supported", path)
	}
	info, total := sf.info, sf.numEdges
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	// Header count -> unknown sentinel: the authoritative count lives in the
	// footer from now on.
	var sentinel [8]byte
	binary.LittleEndian.PutUint64(sentinel[:], unknownEdgeCount)
	if _, err := f.WriteAt(sentinel[:], 20); err != nil {
		f.Close()
		return nil, fmt.Errorf("graph: rewriting shard header count: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(st.Size() - 12); err != nil {
		f.Close()
		return nil, fmt.Errorf("graph: truncating shard tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	info.NumEdges = unknownEdgeCount
	return &ShardWriter{
		bw:    bufio.NewWriter(f),
		buf:   make([]byte, 0, shardChunkEdges*8),
		total: total,
		info:  info,
		f:     f,
	}, nil
}

// ShardReader streams an EShard file chunk by chunk. The header is treated
// as untrusted: every chunk length is bounded, every endpoint is validated
// against the declared vertex count, and the footer must match the edges
// actually read, so truncated or hostile files error instead of yielding a
// bad shard.
type ShardReader struct {
	br   *bufio.Reader
	info ShardInfo
	page []byte
	buf  []uint64
	read uint64
	done bool
}

// NewShardReader parses and validates the header.
func NewShardReader(r io.Reader) (*ShardReader, error) {
	return newShardReaderFrom(bufio.NewReader(r))
}

// newShardReaderFrom is NewShardReader over an existing buffered reader, so
// format-dispatching openers (NewChunkReader) can peek the magic first.
func newShardReaderFrom(br *bufio.Reader) (*ShardReader, error) {
	var hdr [28]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading shard header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != shardMagic {
		return nil, fmt.Errorf("graph: bad magic in edge shard")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != shardVersion {
		return nil, fmt.Errorf("graph: unsupported shard version %d", v)
	}
	info := ShardInfo{
		NumVertices: binary.LittleEndian.Uint32(hdr[8:]),
		Index:       binary.LittleEndian.Uint32(hdr[12:]),
		Count:       binary.LittleEndian.Uint32(hdr[16:]),
		NumEdges:    binary.LittleEndian.Uint64(hdr[20:]),
	}
	if err := info.validate(); err != nil {
		return nil, err
	}
	return &ShardReader{br: br, info: info}, nil
}

// Info returns the shard's header metadata.
func (sr *ShardReader) Info() ShardInfo { return sr.info }

// Next returns the next chunk of packed edges. The returned slice is reused
// by subsequent calls. It returns io.EOF after the terminator, once the
// footer has been validated against the edges read.
func (sr *ShardReader) Next() ([]uint64, error) {
	if sr.done {
		return nil, io.EOF
	}
	var cnt [4]byte
	if _, err := io.ReadFull(sr.br, cnt[:]); err != nil {
		return nil, fmt.Errorf("graph: reading shard chunk header at edge %d: %w", sr.read, err)
	}
	n := binary.LittleEndian.Uint32(cnt[:])
	if n == 0 {
		// Terminator: validate the footer and the declared header count.
		var foot [8]byte
		if _, err := io.ReadFull(sr.br, foot[:]); err != nil {
			return nil, fmt.Errorf("graph: reading shard footer: %w", err)
		}
		total := binary.LittleEndian.Uint64(foot[:])
		if total != sr.read {
			return nil, fmt.Errorf("graph: shard footer declares %d edges, read %d", total, sr.read)
		}
		if sr.info.NumEdges != unknownEdgeCount && sr.info.NumEdges != sr.read {
			return nil, fmt.Errorf("graph: shard header declares %d edges, read %d", sr.info.NumEdges, sr.read)
		}
		sr.done = true
		return nil, io.EOF
	}
	if n > maxShardChunkEdges {
		return nil, fmt.Errorf("graph: shard chunk of %d edges exceeds cap %d", n, maxShardChunkEdges)
	}
	if cap(sr.page) < int(n)*8 {
		sr.page = make([]byte, n*8)
		sr.buf = make([]uint64, n)
	}
	page := sr.page[:n*8]
	if _, err := io.ReadFull(sr.br, page); err != nil {
		return nil, fmt.Errorf("graph: reading shard chunk at edge %d: %w", sr.read, err)
	}
	buf := sr.buf[:n]
	nv := uint64(sr.info.NumVertices)
	for i := range buf {
		k := binary.LittleEndian.Uint64(page[i*8:])
		u, v := k>>32, k&0xffffffff
		if u >= v {
			return nil, fmt.Errorf("graph: shard edge %d (%d,%d) not canonical (want u < v)",
				sr.read+uint64(i), u, v)
		}
		if v >= nv {
			return nil, fmt.Errorf("graph: shard edge %d endpoint %d out of range [0,%d)",
				sr.read+uint64(i), v, nv)
		}
		buf[i] = k
	}
	sr.read += uint64(n)
	return buf, nil
}

// Shard is one rank's in-memory slice of a sharded graph: the global vertex
// count plus packed canonical edges. Edges may contain duplicates (the raw
// stream is not globally deduplicated); SortDedup or the distributed shuffle
// compacts them.
type Shard struct {
	NumVertices uint32
	Packed      []uint64
}

// NumEdges returns the number of packed edges held (duplicates included).
func (s *Shard) NumEdges() int64 { return int64(len(s.Packed)) }

// Bytes returns the memory held by the packed edge slice.
func (s *Shard) Bytes() int64 { return int64(len(s.Packed)) * 8 }

// SortDedup sorts the packed edges ascending and removes duplicates in
// place. Ascending packed order is canonical (U, V) order.
func (s *Shard) SortDedup() {
	dsa.SortU64(s.Packed)
	s.Packed = slices.Compact(s.Packed)
}

// ReadShard loads a whole EShard stream into memory, with capped
// preallocation against hostile headers.
func ReadShard(r io.Reader) (*Shard, error) {
	sr, err := NewShardReader(r)
	if err != nil {
		return nil, err
	}
	prealloc := sr.Info().NumEdges
	if prealloc > maxPrealloc {
		prealloc = maxPrealloc
	}
	s := &Shard{NumVertices: sr.Info().NumVertices, Packed: make([]uint64, 0, prealloc)}
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

// WriteShard writes s as an EShard stream with the given placement.
func WriteShard(w io.Writer, s *Shard, index, count uint32) error {
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

// ShardsOf splits g into p synthetic shards — contiguous stripes of the
// canonical edge list. It is the in-memory adapter for the shard-based
// data plane: a driver that already holds g in memory hands stripe r to rank
// r and the distributed shuffle takes it from there. The stripes are
// disjoint, cover every edge exactly once, and are already sorted and
// deduplicated (they inherit both from the canonical list).
func ShardsOf(g *Graph, p int) []*Shard {
	if p <= 0 {
		panic(fmt.Sprintf("graph: shard count must be positive, got %d", p))
	}
	edges := g.Edges()
	m := len(edges)
	out := make([]*Shard, p)
	for r := 0; r < p; r++ {
		lo, hi := r*m/p, (r+1)*m/p
		packed := make([]uint64, hi-lo)
		for i, e := range edges[lo:hi] {
			packed[i] = PackEdge(e.U, e.V)
		}
		out[r] = &Shard{NumVertices: g.NumVertices(), Packed: packed}
	}
	return out
}

// LocalCSR is a compressed adjacency over a shard's local vertices only: no
// array is sized by the global vertex count, which is what lets a rank index
// its share of a graph whose |V| exceeds its memory. Local vertex ids are
// positions in the sorted Verts slice.
type LocalCSR struct {
	Verts  []Vertex // sorted distinct local vertices
	Off    []int64  // len(Verts)+1 offsets into Target
	Target []Vertex // neighbor global ids, per local adjacency slot
}

// CSR builds the local CSR of the shard's edges. The shard is not modified;
// duplicates contribute parallel adjacency slots, so callers wanting a
// simple graph should SortDedup first.
func (s *Shard) CSR() *LocalCSR {
	// Distinct endpoints, sorted: collect, sort, compact — all O(local).
	verts := make([]Vertex, 0, 2*len(s.Packed))
	for _, k := range s.Packed {
		verts = append(verts, Vertex(k>>32), Vertex(k))
	}
	dsa.SortU32(verts)
	verts = slices.Compact(verts)
	lidOf := func(v Vertex) int {
		i, _ := slices.BinarySearch(verts, v)
		return i
	}
	n := len(verts)
	c := &LocalCSR{Verts: verts, Off: make([]int64, n+1)}
	for _, k := range s.Packed {
		c.Off[lidOf(Vertex(k>>32))+1]++
		c.Off[lidOf(Vertex(k))+1]++
	}
	for v := 0; v < n; v++ {
		c.Off[v+1] += c.Off[v]
	}
	c.Target = make([]Vertex, c.Off[n])
	cursor := make([]int64, n)
	for _, k := range s.Packed {
		u, v := Vertex(k>>32), Vertex(k)
		lu, lv := lidOf(u), lidOf(v)
		c.Target[c.Off[lu]+cursor[lu]] = v
		cursor[lu]++
		c.Target[c.Off[lv]+cursor[lv]] = u
		cursor[lv]++
	}
	return c
}

// LocalID returns the local id of global vertex v, or -1 when v has no local
// edge. O(log |local V|): the mapping is computed, not stored globally.
func (c *LocalCSR) LocalID(v Vertex) int {
	i := sort.Search(len(c.Verts), func(j int) bool { return c.Verts[j] >= v })
	if i < len(c.Verts) && c.Verts[i] == v {
		return i
	}
	return -1
}

// Degree returns the local degree of local vertex lv.
func (c *LocalCSR) Degree(lv int) int64 { return c.Off[lv+1] - c.Off[lv] }

// Neighbors returns the neighbor global ids of local vertex lv. Callers must
// not mutate the slice.
func (c *LocalCSR) Neighbors(lv int) []Vertex { return c.Target[c.Off[lv]:c.Off[lv+1]] }
