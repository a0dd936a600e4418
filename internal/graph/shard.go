package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"github.com/distributedne/dne/internal/dsa"
)

// EShard is the sharded on-disk edge format: the unit of input for a
// distributed run, so that no rank ever has to hold (or regenerate) the full
// graph. A shard file holds one rank's slice of the edge stream as canonical
// edges, framed into bounded chunks so both the writer and the reader run in
// O(chunk) memory regardless of graph scale. Two chunk codecs share one
// container: raw EShard (*.esh) and compressed ESZ1 (*.esz).
//
// Container layout (all little-endian):
//
//	header (28 bytes): magic ("ESH1" or "ESZ1", which selects the codec),
//	                   version, |V| (global), shard index, shard count,
//	                   declared edge count (or unknown sentinel)
//	chunks:            uint32 edge count n in (0, maxShardChunkEdges], the
//	                   codec's frame-header extension, then the payload
//	terminator:        uint32 zero, then a uint64 footer with the total edge
//	                   count actually written
//
// The footer lets a streaming writer (which cannot seek back to patch the
// header) still give readers an end-to-end truncation check, and the
// per-chunk counts bound every allocation the reader makes against a
// hostile or corrupt file. Every edge is a packed key u<<32|v, canonical
// (u < v) with v < |V|: writers reject any other key, and the reader, the
// frame walker and tail recovery reject any chunk holding one.
//
// Raw EShard payload: the frame header has no extension, and the payload is
// the chunk's n keys as 8·n bytes, in any order.
//
// ESZ1 payload: the frame header adds a uint32 payload byte length in
// (0, 10·n]. Keys must never decrease across the whole file (duplicates are
// legal): the compression is the sortedness. Each key is a pair of unsigned
// varints, with (prevU, prevV) reset to (0, 0) at every chunk start so
// chunks stay independently decodable (what tail recovery and the bounded
// reader rely on):
//
//	du = u - prevU                 // ≥ 0: the stream is sorted
//	if du > 0:  gap = v - u - 1    // new source row; v > u is canonical
//	if du == 0: gap = v - prevV    // same row; 0 encodes a duplicate edge
//
// Sorted RMAT-style edge lists compress several-fold (most gaps fit one
// byte), which cuts the cold-disk bytes a streaming partition run moves.
const (
	shardMagic   = 0x45534831 // "ESH1"
	zshardMagic  = 0x45535a31 // "ESZ1"
	shardVersion = 1

	// shardHeaderLen is the header size; the declared edge count sits at
	// shardCountOffset within it.
	shardHeaderLen   = 28
	shardCountOffset = 20

	// unknownEdgeCount in the header means the shard was streamed and the
	// authoritative count is in the footer.
	unknownEdgeCount = ^uint64(0)

	// shardChunkEdges is the writer's flush granularity (64 KiB of raw
	// payload).
	shardChunkEdges = 8192

	// maxShardChunkEdges caps the chunk size a reader will accept; a hostile
	// chunk length past this bound errors instead of driving a huge
	// allocation (512 KiB of raw payload).
	maxShardChunkEdges = 1 << 16

	// maxZChunkPayloadPerEdge bounds an ESZ1 chunk's declared payload length:
	// two varints of at most 5 bytes each per edge (both deltas fit 32 bits),
	// so a hostile length past 10·n bytes errors instead of driving a huge
	// read.
	maxZChunkPayloadPerEdge = 10
)

// shardCodec is what differs between the two shard formats: the magic, the
// chunk frame header and the payload encoding. Everything else — header,
// framing, terminator, footer, the writer, the reader, the frame walk and
// tail recovery — is shared.
type shardCodec struct {
	magic   uint32
	fileExt string // file-name extension
	noun    string // what error messages call a file of this format
	hdrLen  int    // chunk frame header: 4 (edge count) or 8 (plus payload length)
	perEdge uint32 // payload bytes per edge: exact with a 4-byte frame header, a bound otherwise
	sorted  bool   // keys never decrease across the file
	// encode appends the payload of one chunk of keys to dst.
	encode func(dst []byte, keys []uint64) []byte
	// decode fills out from one chunk's payload, validating every edge, and
	// advances cur past it.
	decode func(payload []byte, out []uint64, cur *chunkCursor) error
}

var (
	rawCodec = &shardCodec{
		magic: shardMagic, fileExt: ".esh", noun: "shard", hdrLen: 4, perEdge: 8,
		encode: encodeRawChunk, decode: decodeRawChunk,
	}
	zCodec = &shardCodec{
		magic: zshardMagic, fileExt: ".esz", noun: "compressed shard", hdrLen: 8, perEdge: maxZChunkPayloadPerEdge,
		sorted: true, encode: encodeZChunk, decode: decodeZChunk,
	}
	shardCodecs = []*shardCodec{rawCodec, zCodec}
)

// chunkCursor carries the decode state across a file's chunks.
type chunkCursor struct {
	nv   uint64 // |V|: every endpoint must be below it
	read uint64 // edges decoded so far
	last uint64 // last key decoded, for ESZ1's order check
}

// payloadLen validates a chunk frame header — the edge count n and, in ext,
// the codec's extension — and returns the payload length it frames.
func (c *shardCodec) payloadLen(n uint32, ext []byte) (int, error) {
	if n > maxShardChunkEdges {
		return 0, fmt.Errorf("graph: %s chunk of %d edges exceeds cap %d", c.noun, n, maxShardChunkEdges)
	}
	if c.hdrLen == 4 {
		return int(n * c.perEdge), nil
	}
	blen := binary.LittleEndian.Uint32(ext)
	if blen == 0 || blen > n*c.perEdge {
		return 0, fmt.Errorf("graph: %s chunk payload of %d bytes outside (0,%d]", c.noun, blen, n*c.perEdge)
	}
	return int(blen), nil
}

// fileName is the conventional name of shard i of n in this format.
func (c *shardCodec) fileName(i, n int) string {
	return fmt.Sprintf("shard-%04d-of-%04d%s", i, n, c.fileExt)
}

// edgeError explains why edge i, (u, v), breaks the rule u < v < nv.
func edgeError(noun string, i, u, v, nv uint64) error {
	if u >= v {
		return fmt.Errorf("graph: %s edge %d (%d,%d) not canonical (want u < v)", noun, i, u, v)
	}
	return fmt.Errorf("graph: %s edge %d endpoint %d out of range [0,%d)", noun, i, v, nv)
}

func encodeRawChunk(dst []byte, keys []uint64) []byte {
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
	}
	return dst
}

func decodeRawChunk(payload []byte, out []uint64, cur *chunkCursor) error {
	for i := range out {
		k := binary.LittleEndian.Uint64(payload[i*8:])
		u, v := k>>32, k&0xffffffff
		if u >= v || v >= cur.nv {
			return edgeError("shard", cur.read+uint64(i), u, v, cur.nv)
		}
		out[i] = k
	}
	cur.read += uint64(len(out))
	return nil
}

// encodeZChunk appends the delta+varint encoding of the sorted keys to dst.
func encodeZChunk(dst []byte, keys []uint64) []byte {
	var prevU, prevV uint64
	for _, k := range keys {
		u, v := k>>32, k&0xffffffff
		du := u - prevU
		dst = binary.AppendUvarint(dst, du)
		if du > 0 {
			dst = binary.AppendUvarint(dst, v-u-1)
		} else {
			dst = binary.AppendUvarint(dst, v-prevV)
		}
		prevU, prevV = u, v
	}
	return dst
}

// decodeZChunk decodes one ESZ1 chunk payload into out, validating every
// edge: truncated or oversized varints, delta overflows past |V|,
// non-canonical (u ≥ v) decodes, leftover or missing payload bytes, and keys
// going backwards relative to the previous key all error.
func decodeZChunk(payload []byte, out []uint64, cur *chunkCursor) error {
	var prevU, prevV uint64
	base, nv, lastKey := cur.read, cur.nv, cur.last
	at := 0
	for i := range out {
		du, n := binary.Uvarint(payload[at:])
		if n <= 0 {
			return fmt.Errorf("graph: compressed shard edge %d: truncated or oversized source delta", base+uint64(i))
		}
		at += n
		gap, n := binary.Uvarint(payload[at:])
		if n <= 0 {
			return fmt.Errorf("graph: compressed shard edge %d: truncated or oversized destination gap", base+uint64(i))
		}
		at += n
		u := prevU + du
		var v uint64
		if du > 0 {
			v = u + 1 + gap
		} else {
			v = prevV + gap
		}
		// One range check on v covers u too (v must exceed u), but u is
		// checked first so an overflowing source delta reports as such.
		if u >= nv {
			return fmt.Errorf("graph: compressed shard edge %d source %d out of range [0,%d)", base+uint64(i), u, nv)
		}
		if v >= nv {
			return fmt.Errorf("graph: compressed shard edge %d endpoint %d out of range [0,%d)", base+uint64(i), v, nv)
		}
		if u >= v {
			return fmt.Errorf("graph: compressed shard edge %d (%d,%d) not canonical (want u < v)", base+uint64(i), u, v)
		}
		k := u<<32 | v
		if k < lastKey {
			return fmt.Errorf("graph: compressed shard edge %d key %#x below predecessor %#x (stream not sorted)", base+uint64(i), k, lastKey)
		}
		lastKey = k
		out[i] = k
		prevU, prevV = u, v
	}
	if at != len(payload) {
		return fmt.Errorf("graph: compressed shard chunk at edge %d: %d payload bytes left after %d edges", base, len(payload)-at, len(out))
	}
	cur.read, cur.last = base+uint64(len(out)), lastKey
	return nil
}

// ShardRoute returns the shard a raw edge is routed to when writing a
// sharded graph: a strong hash of the canonical key, so shards are balanced
// and duplicate samples of the same edge land in the same shard. Any
// disjoint routing works for correctness (the distributed shuffle re-routes
// by grid owner and deduplicates), but a fixed one keeps shard files
// reproducible.
func ShardRoute(k uint64, count uint32) uint32 {
	return uint32(dsa.SplitMix64(k) % uint64(count))
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

// readShardHeader reads and validates the header every shard file starts
// with, and returns the codec its magic selects.
func readShardHeader(r io.Reader) (ShardInfo, *shardCodec, error) {
	var hdr [shardHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return ShardInfo{}, nil, fmt.Errorf("graph: reading shard header: %w", err)
	}
	magic := binary.LittleEndian.Uint32(hdr[0:])
	i := slices.IndexFunc(shardCodecs, func(c *shardCodec) bool { return c.magic == magic })
	if i < 0 {
		return ShardInfo{}, nil, fmt.Errorf("graph: bad magic %#x in edge shard (want ESH1 or ESZ1)", magic)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != shardVersion {
		return ShardInfo{}, nil, fmt.Errorf("graph: unsupported version %d of edge shard", v)
	}
	info := ShardInfo{
		NumVertices: binary.LittleEndian.Uint32(hdr[8:]),
		Index:       binary.LittleEndian.Uint32(hdr[12:]),
		Count:       binary.LittleEndian.Uint32(hdr[16:]),
		NumEdges:    binary.LittleEndian.Uint64(hdr[shardCountOffset:]),
	}
	if err := info.validate(); err != nil {
		return ShardInfo{}, nil, err
	}
	return info, shardCodecs[i], nil
}

// appendShardHeader appends the header of a streamed shard file to dst: the
// declared edge count is the unknown sentinel, and readers use the footer.
func appendShardHeader(dst []byte, c *shardCodec, info ShardInfo) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, c.magic)
	dst = binary.LittleEndian.AppendUint32(dst, shardVersion)
	dst = binary.LittleEndian.AppendUint32(dst, info.NumVertices)
	dst = binary.LittleEndian.AppendUint32(dst, info.Index)
	dst = binary.LittleEndian.AppendUint32(dst, info.Count)
	return binary.LittleEndian.AppendUint64(dst, unknownEdgeCount)
}

// frameWalk is what walkFrames found in a shard file's chunk frames.
type frameWalk struct {
	edges  uint64 // edges in the complete chunks walked
	good   int64  // end offset of the last complete chunk
	sealed bool   // the walk ended at a terminator whose footer counts edges
	end    int64  // when sealed, the offset just past the footer
	err    error  // when not sealed, why the walk stopped
}

// walkFrames walks the chunk frames of a shard file of size bytes from the
// end of its header. With decode false it reads frame headers only and skips
// the payloads, which is all an exact edge count needs. With decode true it
// decodes every payload with the codec, exactly as ShardReader does, so a
// chunk counts as complete exactly when the reader would accept it.
func walkFrames(r io.ReaderAt, size int64, c *shardCodec, info ShardInfo, decode bool) frameWalk {
	w := frameWalk{good: shardHeaderLen}
	cur := chunkCursor{nv: uint64(info.NumVertices)}
	var page []byte
	var out []uint64
	var hdr [8]byte
	for {
		if _, err := r.ReadAt(hdr[:4], w.good); err != nil {
			w.err = fmt.Errorf("graph: reading %s chunk header at edge %d: %w", c.noun, w.edges, err)
			return w
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		if n == 0 {
			var foot [8]byte
			if _, err := r.ReadAt(foot[:], w.good+4); err != nil {
				w.err = fmt.Errorf("graph: reading %s footer: %w", c.noun, err)
			} else if total := binary.LittleEndian.Uint64(foot[:]); total != w.edges {
				w.err = fmt.Errorf("graph: %s footer declares %d edges, chunks hold %d", c.noun, total, w.edges)
			} else {
				w.sealed, w.end = true, w.good+12
			}
			return w
		}
		ext := hdr[4:c.hdrLen]
		if _, err := r.ReadAt(ext, w.good+4); err != nil {
			w.err = fmt.Errorf("graph: reading %s chunk header at edge %d: %w", c.noun, w.edges, err)
			return w
		}
		blen, err := c.payloadLen(n, ext)
		if err != nil {
			w.err = err
			return w
		}
		start := w.good + int64(c.hdrLen)
		if start+int64(blen) > size {
			w.err = fmt.Errorf("graph: reading %s chunk at edge %d: %w", c.noun, w.edges, io.ErrUnexpectedEOF)
			return w
		}
		if decode {
			if cap(page) < blen {
				page = make([]byte, blen)
			}
			if cap(out) < int(n) {
				out = make([]uint64, n)
			}
			if _, err := r.ReadAt(page[:blen], start); err != nil {
				w.err = fmt.Errorf("graph: reading %s chunk at edge %d: %w", c.noun, w.edges, err)
				return w
			}
			if err := c.decode(page[:blen], out[:n], &cur); err != nil {
				w.err = err
				return w
			}
		}
		w.edges += uint64(n)
		w.good = start + int64(blen)
	}
}

// ShardWriter streams packed edges into a shard file of either format.
// Memory use is one chunk regardless of how many edges are appended; Close
// writes the terminator and footer.
type ShardWriter struct {
	codec *shardCodec
	bw    *bufio.Writer
	keys  []uint64 // the open chunk
	last  uint64   // last key appended, for ESZ1's order check
	total uint64
	err   error // sticky: a rejected key, a write error, or Close
	info  ShardInfo
	f     *os.File // owned file (CreateShardFile / OpenShardAppend); closed by Close
}

var errShardWriterClosed = errors.New("graph: shard writer closed")

// NewShardWriter writes the raw EShard header for info and returns a
// writer. The declared edge count is the streaming-unknown sentinel; readers
// use the footer written by Close.
func NewShardWriter(w io.Writer, info ShardInfo) (*ShardWriter, error) {
	return newShardWriter(w, rawCodec, info)
}

// NewZShardWriter is NewShardWriter for the compressed ESZ1 format. Keys
// must arrive in ascending order (duplicates allowed).
func NewZShardWriter(w io.Writer, info ShardInfo) (*ShardWriter, error) {
	return newShardWriter(w, zCodec, info)
}

func newShardWriter(w io.Writer, c *shardCodec, info ShardInfo) (*ShardWriter, error) {
	if err := info.validate(); err != nil {
		return nil, err
	}
	sw := &ShardWriter{codec: c, bw: bufio.NewWriter(w), keys: make([]uint64, 0, shardChunkEdges), info: info}
	if _, err := sw.bw.Write(appendShardHeader(nil, c, info)); err != nil {
		return nil, fmt.Errorf("graph: writing shard header: %w", err)
	}
	return sw, nil
}

// AppendPacked adds an already-packed canonical edge key. A key the reader
// would reject — not canonical, an endpoint past |V|, or for ESZ1 below its
// predecessor — errors, and the error is sticky: every later call returns
// it, and Close seals the edges accepted before it.
func (sw *ShardWriter) AppendPacked(k uint64) error {
	if sw.err != nil {
		return sw.err
	}
	if u, v, nv := k>>32, k&0xffffffff, uint64(sw.info.NumVertices); u >= v || v >= nv {
		sw.err = edgeError(sw.codec.noun, sw.total, u, v, nv)
		return sw.err
	}
	if sw.codec.sorted && k < sw.last {
		sw.err = fmt.Errorf("graph: compressed shard input not sorted: key %#x after %#x", k, sw.last)
		return sw.err
	}
	sw.last = k
	sw.keys = append(sw.keys, k)
	sw.total++
	if len(sw.keys) == shardChunkEdges {
		return sw.flushChunk()
	}
	return nil
}

// frameScratch holds the buffers flushChunk encodes a chunk frame into. A
// writer needs one only while it flushes, and the live store keeps two
// writers per partition open and opens as many again at every compaction.
var frameScratch = sync.Pool{New: func() any { return new([]byte) }}

func (sw *ShardWriter) flushChunk() error {
	if len(sw.keys) == 0 {
		return nil
	}
	c := sw.codec
	scratch := frameScratch.Get().(*[]byte)
	frame := c.encode(append((*scratch)[:0], make([]byte, c.hdrLen)...), sw.keys)
	binary.LittleEndian.PutUint32(frame, uint32(len(sw.keys)))
	if c.hdrLen == 8 {
		binary.LittleEndian.PutUint32(frame[4:], uint32(len(frame)-8))
	}
	_, err := sw.bw.Write(frame)
	*scratch = frame
	frameScratch.Put(scratch)
	sw.keys = sw.keys[:0]
	if err != nil {
		sw.err = err
	}
	return err
}

// NumWritten returns the number of edges appended so far (for a reopened
// writer, the edges already in the file included).
func (sw *ShardWriter) NumWritten() uint64 { return sw.total }

// Close flushes the final chunk and writes the terminator and footer. For
// writers that own their file (CreateShardFile, OpenShardAppend) the file is
// also closed. After a rejected key Close still seals the edges accepted
// before it, and returns the rejection. The writer is unusable afterwards.
func (sw *ShardWriter) Close() error {
	if sw.err == errShardWriterClosed {
		return sw.err
	}
	err := sw.flushChunk()
	if err == nil {
		var tail [12]byte // zero chunk count + uint64 footer
		binary.LittleEndian.PutUint64(tail[4:], sw.total)
		_, err = sw.bw.Write(tail[:])
	}
	if err == nil {
		err = sw.bw.Flush()
	}
	if sw.f != nil {
		if cerr := sw.f.Close(); err == nil {
			err = cerr
		}
		sw.f = nil
	}
	if err == nil {
		err = sw.err
	}
	sw.err = errShardWriterClosed
	return err
}

// CreateShardFile creates (or truncates) path and returns a raw EShard
// writer that owns the file: Close writes the terminator and footer and
// closes it.
func CreateShardFile(path string, info ShardInfo) (*ShardWriter, error) {
	return createShardFile(path, rawCodec, info)
}

func createShardFile(path string, c *shardCodec, info ShardInfo) (*ShardWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	sw, err := newShardWriter(f, c, info)
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
	sf, err := peekShardFile(path)
	if err != nil {
		return nil, err
	}
	if sf.codec != rawCodec {
		// Reopening a compressed shard for append would need the last chunk's
		// delta context restored; raw append streams (the live path) use
		// EShard, so keep this opener raw-only.
		return nil, fmt.Errorf("graph: %s: appending to compressed (ESZ1) shards is not supported", path)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	if err := unsealShard(f, sf.size-12); err != nil {
		f.Close()
		return nil, fmt.Errorf("graph: reopening shard %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	info := sf.info
	info.NumEdges = unknownEdgeCount
	return &ShardWriter{
		codec: rawCodec,
		bw:    bufio.NewWriter(f),
		keys:  make([]uint64, 0, shardChunkEdges),
		total: sf.numEdges,
		info:  info,
		f:     f,
	}, nil
}

// unsealShard points the header's declared edge count at the footer (the
// unknown sentinel) and truncates the file to size.
func unsealShard(f *os.File, size int64) error {
	var sentinel [8]byte
	binary.LittleEndian.PutUint64(sentinel[:], unknownEdgeCount)
	if _, err := f.WriteAt(sentinel[:], shardCountOffset); err != nil {
		return err
	}
	return f.Truncate(size)
}

// ShardReader streams a shard file of either format chunk by chunk. The
// header is treated as untrusted: every chunk and payload length is bounded,
// every edge is validated (canonical, in range, and for ESZ1 globally
// non-decreasing), and the footer must match the edges actually read, so
// truncated or hostile files error instead of yielding a bad shard.
type ShardReader struct {
	br    *bufio.Reader
	codec *shardCodec
	info  ShardInfo
	cur   chunkCursor
	page  []byte
	buf   []uint64
	done  bool
}

// NewShardReader parses and validates the header; its magic selects the
// format.
func NewShardReader(r io.Reader) (*ShardReader, error) {
	br := bufio.NewReader(r)
	info, c, err := readShardHeader(br)
	if err != nil {
		return nil, err
	}
	return &ShardReader{br: br, codec: c, info: info, cur: chunkCursor{nv: uint64(info.NumVertices)}}, nil
}

// Next returns the next chunk of packed edges. The returned slice is reused
// by subsequent calls. It returns io.EOF after the terminator, once the
// footer has been validated against the edges read.
func (sr *ShardReader) Next() ([]uint64, error) {
	if sr.done {
		return nil, io.EOF
	}
	c := sr.codec
	var hdr [8]byte
	if _, err := io.ReadFull(sr.br, hdr[:4]); err != nil {
		return nil, fmt.Errorf("graph: reading %s chunk header at edge %d: %w", c.noun, sr.cur.read, err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n == 0 {
		return nil, sr.finish()
	}
	ext := hdr[4:c.hdrLen]
	if _, err := io.ReadFull(sr.br, ext); err != nil {
		return nil, fmt.Errorf("graph: reading %s chunk header at edge %d: %w", c.noun, sr.cur.read, err)
	}
	blen, err := c.payloadLen(n, ext)
	if err != nil {
		return nil, err
	}
	if cap(sr.page) < blen {
		sr.page = make([]byte, blen)
	}
	page := sr.page[:blen]
	if _, err := io.ReadFull(sr.br, page); err != nil {
		return nil, fmt.Errorf("graph: reading %s chunk at edge %d: %w", c.noun, sr.cur.read, err)
	}
	if cap(sr.buf) < int(n) {
		sr.buf = make([]uint64, n)
	}
	buf := sr.buf[:n]
	if err := c.decode(page, buf, &sr.cur); err != nil {
		return nil, err
	}
	return buf, nil
}

// finish validates the footer after the terminator against the edges read
// and the header's declared count, and returns io.EOF when both agree.
func (sr *ShardReader) finish() error {
	c, read := sr.codec, sr.cur.read
	var foot [8]byte
	if _, err := io.ReadFull(sr.br, foot[:]); err != nil {
		return fmt.Errorf("graph: reading %s footer: %w", c.noun, err)
	}
	if total := binary.LittleEndian.Uint64(foot[:]); total != read {
		return fmt.Errorf("graph: %s footer declares %d edges, read %d", c.noun, total, read)
	}
	if sr.info.NumEdges != unknownEdgeCount && sr.info.NumEdges != read {
		return fmt.Errorf("graph: %s header declares %d edges, read %d", c.noun, sr.info.NumEdges, read)
	}
	sr.done = true
	return io.EOF
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
// place. Ascending packed order is canonical (U, V) order. Edges that are
// already ascending, as ShardsOf stripes and canonical shard files are, cost
// one read-only pass: no sort, and no write when there is no duplicate.
func (s *Shard) SortDedup() {
	if !slices.IsSorted(s.Packed) {
		dsa.SortU64(s.Packed)
	}
	s.Packed = slices.Compact(s.Packed)
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
