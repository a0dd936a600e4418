package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// ESZ1 is the compressed companion of the EShard format: the same validated
// header/terminator/footer discipline, but chunk payloads hold sorted
// canonical edges as per-chunk delta-encoded sources with varint destination
// gaps instead of raw packed uint64s. Sorted RMAT-style edge lists compress
// several-fold (most gaps fit one byte), which cuts the cold-disk bytes a
// streaming partition run has to move.
//
// Layout (all little-endian):
//
//	header (28 bytes): magic "ESZ1", version, |V| (global), shard index,
//	                   shard count, declared edge count (or unknown sentinel)
//	chunks:            uint32 edge count n in (0, maxShardChunkEdges],
//	                   uint32 payload byte length in (0, 10·n],
//	                   then the delta-encoded payload
//	terminator:        uint32 zero, then a uint64 footer with the total edge
//	                   count actually written
//
// Chunk payload, with (prevU, prevV) reset to (0, 0) at every chunk start so
// chunks stay independently decodable (what tail recovery and the bounded
// reader rely on); every value is an unsigned varint:
//
//	du = u - prevU                 // ≥ 0: the stream is sorted
//	if du > 0:  gap = v - u - 1    // new source row; v > u is canonical
//	if du == 0: gap = v - prevV    // same row; 0 encodes a duplicate edge
//
// The writer enforces global sortedness (ascending packed keys, duplicates
// legal) and the reader re-validates everything a hostile file could abuse:
// chunk counts and payload lengths against hard caps, truncated varints,
// delta overflows past |V|, non-canonical decodes, payload length
// mismatches, and the footer against the edges actually decoded.
const (
	zshardMagic = 0x45535a31 // "ESZ1"

	// maxZChunkPayloadPerEdge bounds a chunk's declared payload length: two
	// varints of at most 5 bytes each per edge (both deltas fit 32 bits), so
	// a hostile length past 10·n bytes errors instead of driving a huge read.
	maxZChunkPayloadPerEdge = 10
)

// ZShardWriter streams sorted packed edges into the ESZ1 format. Memory use
// is one chunk regardless of how many edges are appended; Close writes the
// terminator and footer. Unlike ShardWriter it rejects out-of-order input:
// the compression is the sortedness.
type ZShardWriter struct {
	bw      *bufio.Writer
	keys    []uint64 // edges buffered for the open chunk
	payload []byte   // encode scratch, reused across chunks
	last    uint64   // last appended key, for the sortedness check
	started bool     // at least one edge appended (so last is meaningful)
	total   uint64
	err     error
	info    ShardInfo
	f       *os.File // owned file (CreateZShardFile); closed by Close
}

// NewZShardWriter writes the ESZ1 header for info and returns a writer. The
// declared edge count is the streaming-unknown sentinel; readers use the
// footer written by Close.
func NewZShardWriter(w io.Writer, info ShardInfo) (*ZShardWriter, error) {
	if err := info.validate(); err != nil {
		return nil, err
	}
	zw := &ZShardWriter{
		bw:      bufio.NewWriter(w),
		keys:    make([]uint64, 0, shardChunkEdges),
		payload: make([]byte, 0, shardChunkEdges*3),
		info:    info,
	}
	var hdr [28]byte
	binary.LittleEndian.PutUint32(hdr[0:], zshardMagic)
	binary.LittleEndian.PutUint32(hdr[4:], shardVersion)
	binary.LittleEndian.PutUint32(hdr[8:], info.NumVertices)
	binary.LittleEndian.PutUint32(hdr[12:], info.Index)
	binary.LittleEndian.PutUint32(hdr[16:], info.Count)
	binary.LittleEndian.PutUint64(hdr[20:], unknownEdgeCount)
	if _, err := zw.bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: writing compressed shard header: %w", err)
	}
	return zw, nil
}

// Append adds an undirected edge, canonicalizing it first and dropping self
// loops, exactly as ShardWriter.Append would.
func (zw *ZShardWriter) Append(u, v Vertex) error {
	if u == v {
		return nil
	}
	return zw.AppendPacked(PackEdge(u, v))
}

// AppendPacked adds an already-packed canonical edge key. Keys must arrive
// in ascending order (duplicates allowed); a key below the previous one
// errors — ESZ1 stores sorted streams only.
func (zw *ZShardWriter) AppendPacked(k uint64) error {
	if zw.err != nil {
		return zw.err
	}
	if zw.started && k < zw.last {
		zw.err = fmt.Errorf("graph: compressed shard input not sorted: key %#x after %#x", k, zw.last)
		return zw.err
	}
	zw.last, zw.started = k, true
	zw.keys = append(zw.keys, k)
	zw.total++
	if len(zw.keys) == shardChunkEdges {
		return zw.flushChunk()
	}
	return nil
}

func (zw *ZShardWriter) flushChunk() error {
	if len(zw.keys) == 0 {
		return zw.err
	}
	payload := encodeZChunk(zw.payload[:0], zw.keys)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(zw.keys)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	if _, err := zw.bw.Write(hdr[:]); err != nil {
		zw.err = err
		return err
	}
	if _, err := zw.bw.Write(payload); err != nil {
		zw.err = err
		return err
	}
	zw.payload = payload[:0]
	zw.keys = zw.keys[:0]
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

// NumWritten returns the number of edges appended so far.
func (zw *ZShardWriter) NumWritten() uint64 { return zw.total }

// Info returns the shard placement the writer was created with.
func (zw *ZShardWriter) Info() ShardInfo { return zw.info }

// Close flushes the final chunk and writes the terminator and footer. For
// writers that own their file (CreateZShardFile) the file is also closed.
// The writer is unusable afterwards.
func (zw *ZShardWriter) Close() error {
	if err := zw.flushChunk(); err != nil {
		zw.closeFile()
		return err
	}
	var tail [12]byte // zero chunk count + uint64 footer
	binary.LittleEndian.PutUint64(tail[4:], zw.total)
	if _, err := zw.bw.Write(tail[:]); err != nil {
		zw.err = err
		zw.closeFile()
		return err
	}
	zw.err = fmt.Errorf("graph: compressed shard writer closed")
	if err := zw.bw.Flush(); err != nil {
		zw.closeFile()
		return err
	}
	return zw.closeFile()
}

func (zw *ZShardWriter) closeFile() error {
	if zw.f == nil {
		return nil
	}
	f := zw.f
	zw.f = nil
	return f.Close()
}

// CreateZShardFile creates (or truncates) path and returns a writer that
// owns the file: Close writes the terminator and footer and closes it.
func CreateZShardFile(path string, info ShardInfo) (*ZShardWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	zw, err := NewZShardWriter(f, info)
	if err != nil {
		f.Close()
		return nil, err
	}
	zw.f = f
	return zw, nil
}

// ZShardReader streams an ESZ1 file chunk by chunk, mirroring ShardReader:
// the header is untrusted, every chunk and payload length is bounded, every
// decoded edge is validated (canonical, in range, globally non-decreasing),
// and the footer must match the edges actually decoded.
type ZShardReader struct {
	br      *bufio.Reader
	info    ShardInfo
	page    []byte
	buf     []uint64
	read    uint64
	lastKey uint64
	started bool
	done    bool
}

// NewZShardReader parses and validates the header.
func NewZShardReader(r io.Reader) (*ZShardReader, error) {
	return newZShardReaderFrom(bufio.NewReader(r))
}

func newZShardReaderFrom(br *bufio.Reader) (*ZShardReader, error) {
	var hdr [28]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading compressed shard header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != zshardMagic {
		return nil, fmt.Errorf("graph: bad magic in compressed edge shard")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != shardVersion {
		return nil, fmt.Errorf("graph: unsupported compressed shard version %d", v)
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
	return &ZShardReader{br: br, info: info}, nil
}

// Info returns the shard's header metadata.
func (zr *ZShardReader) Info() ShardInfo { return zr.info }

// Next returns the next chunk of packed edges. The returned slice is reused
// by subsequent calls. It returns io.EOF after the terminator, once the
// footer has been validated against the edges decoded.
func (zr *ZShardReader) Next() ([]uint64, error) {
	if zr.done {
		return nil, io.EOF
	}
	var hdr [8]byte
	if _, err := io.ReadFull(zr.br, hdr[:4]); err != nil {
		return nil, fmt.Errorf("graph: reading compressed shard chunk header at edge %d: %w", zr.read, err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n == 0 {
		var foot [8]byte
		if _, err := io.ReadFull(zr.br, foot[:]); err != nil {
			return nil, fmt.Errorf("graph: reading compressed shard footer: %w", err)
		}
		total := binary.LittleEndian.Uint64(foot[:])
		if total != zr.read {
			return nil, fmt.Errorf("graph: compressed shard footer declares %d edges, read %d", total, zr.read)
		}
		if zr.info.NumEdges != unknownEdgeCount && zr.info.NumEdges != zr.read {
			return nil, fmt.Errorf("graph: compressed shard header declares %d edges, read %d", zr.info.NumEdges, zr.read)
		}
		zr.done = true
		return nil, io.EOF
	}
	if n > maxShardChunkEdges {
		return nil, fmt.Errorf("graph: compressed shard chunk of %d edges exceeds cap %d", n, maxShardChunkEdges)
	}
	if _, err := io.ReadFull(zr.br, hdr[4:]); err != nil {
		return nil, fmt.Errorf("graph: reading compressed shard chunk header at edge %d: %w", zr.read, err)
	}
	blen := binary.LittleEndian.Uint32(hdr[4:])
	if blen == 0 || blen > n*maxZChunkPayloadPerEdge {
		return nil, fmt.Errorf("graph: compressed shard chunk payload of %d bytes outside (0,%d]", blen, n*maxZChunkPayloadPerEdge)
	}
	if cap(zr.page) < int(blen) {
		zr.page = make([]byte, blen)
	}
	page := zr.page[:blen]
	if _, err := io.ReadFull(zr.br, page); err != nil {
		return nil, fmt.Errorf("graph: reading compressed shard chunk at edge %d: %w", zr.read, err)
	}
	if cap(zr.buf) < int(n) {
		zr.buf = make([]uint64, n)
	}
	buf := zr.buf[:n]
	last, started, err := decodeZChunk(page, buf, uint64(zr.info.NumVertices), zr.lastKey, zr.started, zr.read)
	if err != nil {
		return nil, err
	}
	zr.lastKey, zr.started = last, started
	zr.read += uint64(n)
	return buf, nil
}

// decodeZChunk decodes one chunk payload into out, validating every edge:
// truncated or oversized varints, delta overflows past numVertices,
// non-canonical (u ≥ v) decodes, leftover or missing payload bytes, and
// keys going backwards relative to lastKey all error. It returns the new
// (lastKey, started) cursor.
func decodeZChunk(payload []byte, out []uint64, numVertices, lastKey uint64, started bool, base uint64) (uint64, bool, error) {
	var prevU, prevV uint64
	at := 0
	for i := range out {
		du, n := binary.Uvarint(payload[at:])
		if n <= 0 {
			return 0, false, fmt.Errorf("graph: compressed shard edge %d: truncated or oversized source delta", base+uint64(i))
		}
		at += n
		gap, n := binary.Uvarint(payload[at:])
		if n <= 0 {
			return 0, false, fmt.Errorf("graph: compressed shard edge %d: truncated or oversized destination gap", base+uint64(i))
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
		if u >= numVertices {
			return 0, false, fmt.Errorf("graph: compressed shard edge %d source %d out of range [0,%d)", base+uint64(i), u, numVertices)
		}
		if v >= numVertices {
			return 0, false, fmt.Errorf("graph: compressed shard edge %d endpoint %d out of range [0,%d)", base+uint64(i), v, numVertices)
		}
		if u >= v {
			return 0, false, fmt.Errorf("graph: compressed shard edge %d (%d,%d) not canonical (want u < v)", base+uint64(i), u, v)
		}
		k := u<<32 | v
		if started && k < lastKey {
			return 0, false, fmt.Errorf("graph: compressed shard edge %d key %#x below predecessor %#x (stream not sorted)", base+uint64(i), k, lastKey)
		}
		lastKey, started = k, true
		out[i] = k
		prevU, prevV = u, v
	}
	if at != len(payload) {
		return 0, false, fmt.Errorf("graph: compressed shard chunk at edge %d: %d payload bytes left after %d edges", base, len(payload)-at, len(out))
	}
	return lastKey, started, nil
}

// ChunkReader is the format-independent face of a shard file: both the raw
// EShard reader and the compressed ESZ1 reader stream validated chunks of
// packed canonical edges under it. NewChunkReader dispatches on the magic,
// so every shard consumer (DirSource, ReadShardDir, graphstat) handles
// mixed raw/compressed directories with one code path.
type ChunkReader interface {
	// Info returns the shard's header metadata.
	Info() ShardInfo
	// Next returns the next chunk of packed edges, or io.EOF after the
	// validated terminator. The returned slice is reused across calls.
	Next() ([]uint64, error)
}

// NewChunkReader peeks the 4-byte magic and opens the matching reader:
// EShard ("ESH1") or compressed ESZ1.
func NewChunkReader(r io.Reader) (ChunkReader, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("graph: reading shard magic: %w", err)
	}
	switch binary.LittleEndian.Uint32(magic) {
	case shardMagic:
		return newShardReaderFrom(br)
	case zshardMagic:
		return newZShardReaderFrom(br)
	}
	return nil, fmt.Errorf("graph: unknown shard magic %#x (want ESH1 or ESZ1)", binary.LittleEndian.Uint32(magic))
}

// recoverZShardTail is RecoverShardTail's walk for ESZ1 files: chunks are
// accepted from the start for as long as they fully decode (bounded counts
// and payload lengths, valid varints, canonical in-range sorted edges); the
// file is truncated back to the end of the last good chunk and resealed.
// The caller has already read and validated the header.
func recoverZShardTail(f *os.File, info ShardInfo, size int64) (edges uint64, droppedBytes int64, err error) {
	var total uint64
	offset := int64(28)
	lastGood := offset
	nv := uint64(info.NumVertices)
	page := make([]byte, maxShardChunkEdges*maxZChunkPayloadPerEdge)
	out := make([]uint64, maxShardChunkEdges)
	var lastKey uint64
	started := false
	sealed := false
	for {
		var hdr [8]byte
		if _, err := f.ReadAt(hdr[:4], offset); err != nil {
			break // torn mid chunk header (or clean EOF with no terminator)
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		if n == 0 {
			var foot [8]byte
			if _, err := f.ReadAt(foot[:], offset+4); err != nil {
				break // torn mid footer
			}
			if binary.LittleEndian.Uint64(foot[:]) != total {
				break // footer contradicts the chunks; rewrite it
			}
			sealed = true
			offset += 12
			break
		}
		if n > maxShardChunkEdges {
			break // not a believable frame
		}
		if _, err := f.ReadAt(hdr[4:], offset+4); err != nil {
			break
		}
		blen := binary.LittleEndian.Uint32(hdr[4:])
		if blen == 0 || blen > n*maxZChunkPayloadPerEdge {
			break
		}
		payload := page[:blen]
		if _, err := f.ReadAt(payload, offset+8); err != nil {
			break // torn mid payload
		}
		lk, st, err := decodeZChunk(payload, out[:n], nv, lastKey, started, total)
		if err != nil {
			break // garbage where a chunk should be
		}
		lastKey, started = lk, st
		total += uint64(n)
		offset += 8 + int64(blen)
		lastGood = offset
	}

	if sealed && offset == size {
		if info.NumEdges == unknownEdgeCount || info.NumEdges == total {
			// Already a fully valid file: leave it untouched.
			return total, 0, nil
		}
		// Header contradicts a structurally valid body — reseal below.
	}

	droppedBytes = size - lastGood
	if sealed {
		droppedBytes = size - offset // only junk past the terminator was dropped
	}
	if droppedBytes < 0 {
		droppedBytes = 0
	}
	var sentinel [8]byte
	binary.LittleEndian.PutUint64(sentinel[:], unknownEdgeCount)
	if _, err := f.WriteAt(sentinel[:], 20); err != nil {
		return 0, 0, fmt.Errorf("graph: resealing compressed shard: %w", err)
	}
	var tail [12]byte
	binary.LittleEndian.PutUint64(tail[4:], total)
	if _, err := f.WriteAt(tail[:], lastGood); err != nil {
		return 0, 0, fmt.Errorf("graph: resealing compressed shard: %w", err)
	}
	if err := f.Truncate(lastGood + 12); err != nil {
		return 0, 0, fmt.Errorf("graph: resealing compressed shard: %w", err)
	}
	if err := f.Sync(); err != nil {
		return 0, 0, fmt.Errorf("graph: resealing compressed shard: %w", err)
	}
	return total, droppedBytes, nil
}
