package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
)

// Wire format of the TCP transport (tcp.go). Everything on a connection is a
// frame: a fixed 16-byte little-endian header followed by length payload
// bytes.
//
//	offset  size  field
//	0       4     length  payload bytes that follow the header
//	4       2     from    sending rank
//	6       2     to      destination rank
//	8       1     tag     message Tag
//	9       1     flags   0 for a message; flagHello, flagBye or flagHb
//	10      1     kind    body kind of the payload (RegisterWire); 0 = none
//	11      5     seq     sender's sequence number, low 40 bits
//
// The header is exactly the headerBytes every transport accounts per
// message, and a body's payload is exactly its WireSize() bytes, so the
// accounted communication volume is the number of bytes written. Ranks are
// 16 bits (a mesh has at most 1<<16 machines) and a sender's Seq wraps after
// 2^40 messages on one connection.
//
// Control frames carry no body: a hello (first frame of a connection; from =
// the worker's rank, payload = wireMagic + wireVersion), a bye (the worker is
// done) and a heartbeat (echoed by the router, never forwarded).
const (
	flagHello uint8 = 1 << iota
	flagBye
	flagHb
)

const (
	wireMagic   uint32 = 0x57454e44 // "DNEW"
	wireVersion uint32 = 1
	helloBytes         = 8

	// maxFramePayload bounds the length field a reader accepts and a sender
	// may produce. Bulk payloads (the shuffle, the result collection) travel
	// in chunks of at most MaxBody bytes, so the largest honest bodies are
	// single messages such as a superstep's step body, far below it. A
	// reader never allocates from the field itself (see frameReader.fill),
	// so the bound only limits how long a lying peer can make it wait.
	maxFramePayload = 1 << 30

	// maxRanks is what the 16-bit rank fields can address.
	maxRanks = 1 << 16
)

// frameHeader is the decoded fixed header.
type frameHeader struct {
	length   uint32
	from, to int
	tag      Tag
	flags    uint8
	kind     uint8
	seq      uint64
}

// appendFrameHeader appends h's 16 wire bytes to dst.
func appendFrameHeader(dst []byte, h frameHeader) []byte {
	dst = binary.LittleEndian.AppendUint64(dst,
		uint64(h.length)|uint64(uint16(h.from))<<32|uint64(uint16(h.to))<<48)
	return binary.LittleEndian.AppendUint64(dst,
		uint64(h.tag)|uint64(h.flags)<<8|uint64(h.kind)<<16|h.seq<<24)
}

// parseFrameHeader decodes the header at the front of b (len(b) >=
// headerBytes).
func parseFrameHeader(b []byte) frameHeader {
	w0 := binary.LittleEndian.Uint64(b)
	w1 := binary.LittleEndian.Uint64(b[8:])
	return frameHeader{
		length: uint32(w0),
		from:   int(uint16(w0 >> 32)),
		to:     int(uint16(w0 >> 48)),
		tag:    Tag(w1),
		flags:  uint8(w1 >> 8),
		kind:   uint8(w1 >> 16),
		seq:    w1 >> 24,
	}
}

// controlFrame returns the bytes of a body-less frame.
func controlFrame(flags uint8, from int, payload ...byte) []byte {
	b := appendFrameHeader(nil, frameHeader{length: uint32(len(payload)), from: from, flags: flags})
	return append(b, payload...)
}

// helloFrame is the first frame a worker writes.
func helloFrame(rank int) []byte {
	var p [helloBytes]byte
	binary.LittleEndian.PutUint32(p[:], wireMagic)
	binary.LittleEndian.PutUint32(p[4:], wireVersion)
	return controlFrame(flagHello, rank, p[:]...)
}

// checkHello validates a hello's payload.
func checkHello(payload []byte) error {
	if magic := binary.LittleEndian.Uint32(payload); magic != wireMagic {
		return fmt.Errorf("bad magic %#x", magic)
	}
	if v := binary.LittleEndian.Uint32(payload[4:]); v != wireVersion {
		return fmt.Errorf("wire version %d, this router speaks %d", v, wireVersion)
	}
	return nil
}

// frameBufSize is a frame reader's initial buffer. A superstep's frames are
// far smaller, so one read usually returns several of them, and a chunk of
// a bulk collective fills it at most: TCPNode.MaxBody is what is left of it
// after the header.
const frameBufSize = 64 << 10

// frameBufGrows counts, process-wide, the times a frame reader outgrew its
// buffer. Chunked bulk traffic never makes it move; a single body larger
// than MaxBody does, once per doubling.
var frameBufGrows atomic.Int64

// frameReader splits a byte stream into frames. The router and the nodes
// share it: the router streams a frame's raw bytes on (copyNext), a node
// decodes the payload (next).
type frameReader struct {
	r          io.Reader
	buf        []byte // buf[start:end] is received and not yet consumed
	start, end int
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: r, buf: make([]byte, frameBufSize)}
}

// fill blocks until n unconsumed bytes are buffered. The buffer doubles only
// when it is full of bytes actually received, so its size never exceeds
// twice what the peer has sent: a hostile length field allocates nothing.
func (fr *frameReader) fill(n int) error {
	for empty := 0; fr.end-fr.start < n; {
		if fr.end == len(fr.buf) {
			if fr.start == 0 {
				fr.buf = append(fr.buf, make([]byte, len(fr.buf))...)
				frameBufGrows.Add(1)
			}
			fr.end = copy(fr.buf, fr.buf[fr.start:fr.end])
			fr.start = 0
		}
		m, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += m
		if err != nil && fr.end-fr.start < n {
			if err == io.EOF && fr.end > fr.start {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		if m > 0 {
			empty = 0
		} else if empty++; empty == 100 {
			return io.ErrNoProgress
		}
	}
	return nil
}

// peek returns the next frame's header without consuming it, so a caller
// can reject a frame before waiting for its payload.
func (fr *frameReader) peek() (frameHeader, error) {
	if fr.start == fr.end {
		fr.start, fr.end = 0, 0
	}
	if err := fr.fill(headerBytes); err != nil {
		return frameHeader{}, err
	}
	h := parseFrameHeader(fr.buf[fr.start:])
	if h.length > maxFramePayload {
		return h, fmt.Errorf("cluster: frame of %d payload bytes exceeds the %d limit", h.length, maxFramePayload)
	}
	return h, nil
}

// next consumes one frame and returns its header and raw bytes (header
// included). raw aliases the reader's buffer and is valid until the
// following call.
func (fr *frameReader) next() (h frameHeader, raw []byte, err error) {
	if h, err = fr.peek(); err != nil {
		return h, nil, err
	}
	total := headerBytes + int(h.length)
	if err := fr.fill(total); err != nil {
		return h, nil, err
	}
	raw = fr.buf[fr.start : fr.start+total]
	fr.start += total
	return h, raw, nil
}

// copyNext consumes the frame whose header peek returned and passes its raw
// bytes, header included, to write in pieces as they arrive. The pieces
// alias the buffer, which never grows: a frame of any length goes through
// the reader's first buffer. A stream that ends inside the frame is
// io.ErrUnexpectedEOF.
func (fr *frameReader) copyNext(h frameHeader, write func([]byte) error) error {
	for rest := headerBytes + int(h.length); ; {
		n := min(rest, fr.end-fr.start)
		if err := write(fr.buf[fr.start : fr.start+n]); err != nil {
			return err
		}
		fr.start += n
		if rest -= n; rest == 0 {
			return nil
		}
		fr.start, fr.end = 0, 0
		if err := fr.fill(1); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
}

// WireBody is a Body the TCP transport can carry. The in-process transport
// hands bodies over by reference and never calls these methods.
type WireBody interface {
	Body
	// WireKind is the type's body kind, the one its decoder is registered
	// under with RegisterWire.
	WireKind() uint8
	// AppendWire appends the payload, exactly WireSize() bytes, to dst.
	AppendWire(dst []byte) []byte
}

// appendMessage appends the frame of one message: the header, then the
// payload b writes. dst grows once, to hold the whole frame, before anything
// is written. A body whose AppendWire and WireSize disagree, or that is over
// the frame limit, is a bug in its type.
func appendMessage(dst []byte, from, to int, tag Tag, seq uint64, b WireBody) []byte {
	size := b.WireSize()
	start := len(dst)
	dst = slices.Grow(dst, headerBytes+size)
	dst = appendFrameHeader(dst, frameHeader{length: uint32(size), from: from, to: to, tag: tag, kind: b.WireKind(), seq: seq})
	dst = b.AppendWire(dst)
	if wrote := len(dst) - start - headerBytes; wrote != size || size > maxFramePayload {
		panic(fmt.Sprintf("cluster: %T wrote %d payload bytes, WireSize says %d (frame limit %d)", b, wrote, size, maxFramePayload))
	}
	return dst
}

// Body kinds are one namespace across the packages that define bodies:
// 1–15 are this package's, 16–31 internal/dne's, 32–47 internal/lppart's.
const (
	kindInt64 uint8 = 1 + iota
	kindInt64Slice
	kindUint64Slice
	kindKeyed
)

var wireDecoders [256]func(payload []byte) (Body, error)

// RegisterWire registers the decoder of a body kind. decode must copy what
// it keeps (payload aliases a connection's read buffer) and must reject any
// payload its type's AppendWire could not have produced. Call it from an
// init function: the table is read without a lock once connections exist.
func RegisterWire(kind uint8, decode func(payload []byte) (Body, error)) {
	if kind == 0 || wireDecoders[kind] != nil {
		panic(fmt.Sprintf("cluster: body kind %d is reserved or already registered", kind))
	}
	wireDecoders[kind] = decode
}

// DecodeWire decodes a payload of the given kind.
func DecodeWire(kind uint8, payload []byte) (Body, error) {
	decode := wireDecoders[kind]
	if decode == nil {
		return nil, fmt.Errorf("cluster: unregistered body kind %d", kind)
	}
	return decode(payload)
}

// WireKinds returns every registered body kind, ascending.
func WireKinds() []uint8 {
	var kinds []uint8
	for k, d := range wireDecoders {
		if d != nil {
			kinds = append(kinds, uint8(k))
		}
	}
	return kinds
}

// ErrWireLength is what the slice decoders return for a payload that is not
// a whole number of elements.
var ErrWireLength = errors.New("cluster: payload is not a whole number of elements")

// AppendWords appends xs as little-endian 64-bit words.
func AppendWords[T ~int64 | ~uint64](dst []byte, xs []T) []byte {
	dst = slices.Grow(dst, 8*len(xs))
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
	}
	return dst
}

// DecodeWords is the inverse of AppendWords; the result is a fresh slice.
func DecodeWords[T ~int64 | ~uint64](p []byte) ([]T, error) {
	if len(p)%8 != 0 {
		return nil, ErrWireLength
	}
	xs := make([]T, len(p)/8)
	for i := range xs {
		xs[i] = T(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return xs, nil
}

// AppendWords32 appends xs as little-endian 32-bit words.
func AppendWords32[T ~int32 | ~uint32](dst []byte, xs []T) []byte {
	dst = slices.Grow(dst, 4*len(xs))
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
	}
	return dst
}

// DecodeWords32 is the inverse of AppendWords32; the result is a fresh slice.
func DecodeWords32[T ~int32 | ~uint32](p []byte) ([]T, error) {
	if len(p)%4 != 0 {
		return nil, ErrWireLength
	}
	xs := make([]T, len(p)/4)
	for i := range xs {
		xs[i] = T(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return xs, nil
}

// AppendKeyed appends n 64-bit keys followed by their n 32-bit values, the
// shape of the keyed bodies (KeyedBody, the result collections).
// DecodeKeyed recovers n from the length, so unequal slices are a bug in
// the caller.
func AppendKeyed[K ~int64 | ~uint64](dst []byte, keys []K, vals []int32) []byte {
	if len(keys) != len(vals) {
		panic(fmt.Sprintf("cluster: keyed body with %d keys and %d values", len(keys), len(vals)))
	}
	return AppendWords32(AppendWords(dst, keys), vals)
}

// DecodeKeyed is the inverse of AppendKeyed; the results are fresh slices.
func DecodeKeyed[K ~int64 | ~uint64](p []byte) ([]K, []int32, error) {
	if len(p)%12 != 0 {
		return nil, nil, ErrWireLength
	}
	n := len(p) / 12
	keys, _ := DecodeWords[K](p[:8*n])
	vals, _ := DecodeWords32[int32](p[8*n:])
	return keys, vals, nil
}

// WireKind implements WireBody.
func (Int64Body) WireKind() uint8 { return kindInt64 }

// AppendWire implements WireBody.
func (b Int64Body) AppendWire(dst []byte) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(b))
}

// WireKind implements WireBody.
func (Int64SliceBody) WireKind() uint8 { return kindInt64Slice }

// AppendWire implements WireBody.
func (b Int64SliceBody) AppendWire(dst []byte) []byte { return AppendWords(dst, b) }

// WireKind implements WireBody.
func (Uint64SliceBody) WireKind() uint8 { return kindUint64Slice }

// AppendWire implements WireBody.
func (b Uint64SliceBody) AppendWire(dst []byte) []byte { return AppendWords(dst, b) }

// WireKind implements WireBody.
func (KeyedBody) WireKind() uint8 { return kindKeyed }

// AppendWire implements WireBody.
func (b KeyedBody) AppendWire(dst []byte) []byte { return AppendKeyed(dst, b.Keys, b.Vals) }

func init() {
	RegisterWire(kindInt64, func(p []byte) (Body, error) {
		if len(p) != 8 {
			return nil, ErrWireLength
		}
		return Int64Body(binary.LittleEndian.Uint64(p)), nil
	})
	RegisterWire(kindInt64Slice, func(p []byte) (Body, error) {
		xs, err := DecodeWords[int64](p)
		return Int64SliceBody(xs), err
	})
	RegisterWire(kindUint64Slice, func(p []byte) (Body, error) {
		xs, err := DecodeWords[uint64](p)
		return Uint64SliceBody(xs), err
	})
	RegisterWire(kindKeyed, func(p []byte) (Body, error) {
		keys, vals, err := DecodeKeyed[uint64](p)
		return KeyedBody{Keys: keys, Vals: vals}, err
	})
}
