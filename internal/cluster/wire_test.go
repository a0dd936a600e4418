package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/iotest"
)

func TestFrameHeaderRoundTrip(t *testing.T) {
	for _, h := range []frameHeader{
		{},
		{length: 8, from: 3, to: 1, tag: TagUser + 2, kind: kindInt64Slice, seq: 77},
		{length: maxFramePayload, from: maxRanks - 1, to: maxRanks - 1, tag: 255, flags: flagHb, kind: 255, seq: 1<<40 - 1},
	} {
		b := appendFrameHeader(nil, h)
		if len(b) != headerBytes {
			t.Fatalf("header of %+v is %d bytes, accounted headerBytes is %d", h, len(b), headerBytes)
		}
		if got := parseFrameHeader(b); got != h {
			t.Errorf("round trip of %+v gave %+v", h, got)
		}
	}
	// Seq is 40 bits on the wire; the bits above must not leak into other fields.
	if got := parseFrameHeader(appendFrameHeader(nil, frameHeader{seq: 1<<40 + 5})); got != (frameHeader{seq: 5}) {
		t.Errorf("seq beyond 40 bits decoded as %+v", got)
	}
}

// roundTrip sends b through the encoder, the frame reader and the decoder,
// and fails unless the accounted size is the size written.
func roundTrip(t *testing.T, b WireBody) Body {
	t.Helper()
	frame := appendMessage(nil, 2, 1, TagUser, 9, b)
	if want := headerBytes + b.WireSize(); len(frame) != want {
		t.Fatalf("%T: encoder wrote %d bytes, headerBytes + WireSize() = %d", b, len(frame), want)
	}
	h, raw, err := newFrameReader(iotest.OneByteReader(bytes.NewReader(frame))).next()
	if err != nil {
		t.Fatalf("%T: %v", b, err)
	}
	if want := (frameHeader{length: uint32(b.WireSize()), from: 2, to: 1, tag: TagUser, kind: b.WireKind(), seq: 9}); h != want {
		t.Fatalf("%T: header %+v, want %+v", b, h, want)
	}
	got, err := DecodeWire(h.kind, raw[headerBytes:])
	if err != nil {
		t.Fatalf("%T: %v", b, err)
	}
	return got
}

// fullChunk is the largest chunk the TCP transport sends of a bulk
// collective: a uint64 vector of MaxBody bytes.
func fullChunk() Uint64SliceBody {
	chunk := make(Uint64SliceBody, (frameBufSize-headerBytes)/8)
	for i := range chunk {
		chunk[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return chunk
}

func TestBodyRoundTrip(t *testing.T) {
	chunk := fullChunk()
	keyed := KeyedBody{Keys: chunk[:(frameBufSize-headerBytes)/12], Vals: make([]int32, (frameBufSize-headerBytes)/12)}
	for i := range keyed.Vals {
		keyed.Vals[i] = int32(i) - 7
	}
	for _, b := range []WireBody{
		Int64Body(0), Int64Body(-1), Int64Body(math.MinInt64),
		Int64SliceBody(nil), Int64SliceBody{}, Int64SliceBody{math.MaxInt64, -7, 0},
		Uint64SliceBody(nil), Uint64SliceBody{math.MaxUint64}, chunk,
		KeyedBody{}, KeyedBody{Keys: []uint64{math.MaxUint64}, Vals: []int32{math.MinInt32}}, keyed,
	} {
		got := roundTrip(t, b)
		// A nil slice and an empty one are the same message.
		if kb, ok := got.(KeyedBody); ok && len(kb.Keys) == 0 {
			if b.WireSize() != 0 || len(kb.Vals) != 0 {
				t.Errorf("%#v decoded as %#v", b, got)
			}
			continue
		}
		if reflect.ValueOf(b).Kind() == reflect.Slice && reflect.ValueOf(b).Len() == 0 {
			if reflect.TypeOf(got) != reflect.TypeOf(b) || reflect.ValueOf(got).Len() != 0 {
				t.Errorf("%T(empty) decoded as %#v", b, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, Body(b)) {
			t.Errorf("%T did not survive the round trip", b)
		}
	}
}

func TestRegisterWireRejectsReuse(t *testing.T) {
	for _, kind := range []uint8{0, kindInt64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterWire(%d) did not panic", kind)
				}
			}()
			RegisterWire(kind, func([]byte) (Body, error) { return nil, nil })
		}()
	}
}

// chunkReader returns its data in reads of the given sizes, cycling, and
// counts what it handed out.
type chunkReader struct {
	data  []byte
	sizes []byte
	i     int
	given int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(c.sizes) > 0 {
		n += int(c.sizes[c.i%len(c.sizes)])
		c.i++
	}
	n = min(n, len(p), len(c.data))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	c.given += n
	return n, nil
}

// readFrames drains a stream through a frame reader whose buffer starts at
// bufSize bytes and checks what must hold for any input: frames are
// internally consistent, nothing is invented, and the buffer never outgrows
// what the peer actually sent.
func readFrames(t *testing.T, bufSize int, data, sizes []byte) (frames int, err error) {
	t.Helper()
	src := &chunkReader{data: data, sizes: sizes}
	fr := &frameReader{r: src, buf: make([]byte, bufSize)}
	consumed := 0
	for {
		h, raw, err := fr.next()
		if len(fr.buf) > max(bufSize, 2*src.given) {
			t.Fatalf("buffer grew to %d bytes after %d received", len(fr.buf), src.given)
		}
		if err != nil {
			if errors.Is(err, io.EOF) && consumed != len(data) {
				t.Fatalf("clean EOF after %d of %d bytes", consumed, len(data))
			}
			return frames, err
		}
		if h.length > maxFramePayload || len(raw) != headerBytes+int(h.length) {
			t.Fatalf("frame %d: header says %d payload bytes, raw is %d bytes", frames, h.length, len(raw))
		}
		if !bytes.Equal(raw, data[consumed:consumed+len(raw)]) {
			t.Fatalf("frame %d is not the bytes at offset %d of the stream", frames, consumed)
		}
		consumed += len(raw)
		frames++
	}
}

// sampleStream is real encoder output: a hello, messages of every kind in
// this package (an empty one and one of bigWords words among them), a
// heartbeat and a bye.
func sampleStream(bigWords int) []byte {
	s := helloFrame(3)
	s = appendMessage(s, 3, 0, TagUser, 1, Int64Body(42))
	s = appendMessage(s, 3, 1, tagReduce, 2, Int64SliceBody{1, 2, 3})
	s = appendMessage(s, 3, 1, tagCollData, 3, Uint64SliceBody(nil))
	s = append(s, controlFrame(flagHb, 3)...)
	s = appendMessage(s, 3, 2, tagCollData, 4, make(Uint64SliceBody, bigWords))
	s = appendMessage(s, 3, 0, tagCollData, 5, KeyedBody{Keys: []uint64{1, 2}, Vals: []int32{0, 1}})
	return append(s, controlFrame(flagBye, 3)...)
}

// copyFrames drains the same stream as readFrames, but streams every frame
// through copyNext as the router does, and returns the bytes it forwarded.
// The buffer must never move, and a frame must be forwarded whole or end
// the stream with an error.
func copyFrames(t *testing.T, bufSize int, data, sizes []byte) (forwarded []byte, err error) {
	t.Helper()
	fr := &frameReader{r: &chunkReader{data: data, sizes: sizes}, buf: make([]byte, bufSize)}
	buf := &fr.buf[0]
	for {
		h, err := fr.peek()
		if err != nil {
			return forwarded, err
		}
		before := len(forwarded)
		err = fr.copyNext(h, func(b []byte) error {
			forwarded = append(forwarded, b...)
			return nil
		})
		if len(fr.buf) != bufSize || &fr.buf[0] != buf {
			t.Fatalf("copyNext moved the buffer: %d bytes, started with %d", len(fr.buf), bufSize)
		}
		if err != nil {
			if err == io.EOF {
				t.Fatal("clean EOF inside a frame")
			}
			return forwarded[:before], err
		}
		if got := len(forwarded) - before; got != headerBytes+int(h.length) {
			t.Fatalf("forwarded %d bytes of a %d-byte frame", got, headerBytes+int(h.length))
		}
	}
}

// fuzzBufSize starts the fuzzed reader's buffer just above one header, so
// short inputs reach the slide and grow paths.
const fuzzBufSize = headerBytes + 8

func TestFrameReaderHostileStreams(t *testing.T) {
	// One frame of a body four times the default buffer: next grows to hold
	// it, copyNext streams it through the buffer it has.
	stream := sampleStream(frameBufSize / 2)
	for _, bufSize := range []int{frameBufSize, fuzzBufSize} {
		if n, err := readFrames(t, bufSize, stream, []byte{0, 200, 3}); n != 8 || err != io.EOF {
			t.Fatalf("sample stream: %d frames, %v; want 8 and a clean EOF", n, err)
		}
		if fwd, err := copyFrames(t, bufSize, stream, []byte{0, 200, 3}); !bytes.Equal(fwd, stream) || err != io.EOF {
			t.Fatalf("sample stream: forwarded %d of %d bytes, %v; want all and a clean EOF", len(fwd), len(stream), err)
		}
	}
	for cut := 1; cut < len(stream); cut += 1 + cut/7 {
		if _, err := readFrames(t, frameBufSize, stream[:cut], nil); err != io.EOF && err != io.ErrUnexpectedEOF {
			t.Fatalf("stream cut at %d: %v", cut, err)
		}
		if _, err := copyFrames(t, frameBufSize, stream[:cut], nil); err != io.EOF && err != io.ErrUnexpectedEOF {
			t.Fatalf("stream cut at %d, streamed: %v", cut, err)
		}
	}
	// A length over the limit is refused from the header alone; one under it
	// that never arrives ends in EOF having allocated nothing for it.
	over := appendFrameHeader(nil, frameHeader{length: maxFramePayload + 1})
	if _, err := readFrames(t, frameBufSize, over, nil); err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		t.Fatalf("oversized frame: %v", err)
	}
	lying := appendFrameHeader(nil, frameHeader{length: maxFramePayload})
	if _, err := readFrames(t, frameBufSize, append(lying, 1, 2, 3), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("frame promising %d bytes and sending 3: %v", maxFramePayload, err)
	}
	// A reader that returns no bytes and no error forever is an error, not a spin.
	if _, _, err := newFrameReader(eternalEmpty{}).next(); err != io.ErrNoProgress {
		t.Fatalf("reader making no progress: %v", err)
	}
}

type eternalEmpty struct{}

func (eternalEmpty) Read([]byte) (int, error) { return 0, nil }

func FuzzFrameReader(f *testing.F) {
	stream := sampleStream(5)
	f.Add(stream, []byte{0})
	f.Add(stream, []byte{255, 15, 0, 3})
	f.Add(stream[:len(stream)/2], []byte{7})
	f.Add(stream[:headerBytes-1], []byte{})
	f.Add(controlFrame(flagHb, 0), []byte{})
	over := binary.LittleEndian.AppendUint32(nil, maxFramePayload+1)
	f.Add(append(over, stream...), []byte{1})
	f.Add(append(binary.LittleEndian.AppendUint32(nil, maxFramePayload), stream...), []byte{31})
	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		_, readErr := readFrames(t, fuzzBufSize, data, sizes)
		// The router's path forwards exactly the frames next returns, whole,
		// through a buffer of either size that never grows.
		var want []byte
		fr := &frameReader{r: &chunkReader{data: data, sizes: sizes}, buf: make([]byte, fuzzBufSize)}
		for {
			_, raw, err := fr.next()
			if err != nil {
				break
			}
			want = append(want, raw...)
		}
		for _, bufSize := range []int{fuzzBufSize, frameBufSize} {
			got, err := copyFrames(t, bufSize, data, sizes)
			if !bytes.Equal(got, want) {
				t.Fatalf("buffer %d: copyNext forwarded %d bytes, next returned %d in whole frames", bufSize, len(got), len(want))
			}
			if (err == io.EOF) != (readErr == io.EOF) {
				t.Fatalf("buffer %d: copyNext ended with %v, next with %v", bufSize, err, readErr)
			}
		}
	})
}
