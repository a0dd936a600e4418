// Package binio is the one codec under the repository's fixed-layout binary
// files, the DNB1/DNC1 DNE checkpoints. Each is a sequence of little-endian
// u32/u64 words behind a magic header. binio decides, once for all of them,
// how words are paged to and from the stream, how far a count decoded from
// the stream may drive preallocation, how the FNV-64a trailer is kept and
// checked, and how a file on disk is replaced.
//
// Writer and Reader carry a sticky error: after the first failure every
// call is a no-op (reads return zero values), so a format encodes or
// decodes a run of fields and checks Err once.
package binio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"slices"
	"unsafe"
)

// pageBytes is the I/O batch: words are encoded into, and decoded from,
// pages of this many bytes.
const pageBytes = 32 << 10

// maxPrealloc caps the elements a reader preallocates for a count decoded
// from input. A longer slab grows only as its bytes arrive, so a hostile
// count fails on the short read instead of allocating up front.
const maxPrealloc = 1 << 16

// Cap bounds a count decoded from input for preallocation.
func Cap(n uint64) int { return int(min(n, maxPrealloc)) }

// Word is an element type binio pages: 4- or 8-byte integers.
type Word interface {
	~uint32 | ~int32 | ~uint64 | ~int64
}

func sizeOf[T Word]() int {
	var zero T
	return int(unsafe.Sizeof(zero))
}

// Writer encodes little-endian words into page-sized writes. A digested
// Writer also feeds every byte it writes to an FNV-64a hash, which Trailer
// appends.
type Writer struct {
	w   io.Writer
	h   hash.Hash64
	buf []byte
	err error
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, pageBytes)}
}

// NewDigestWriter returns a Writer over w that digests what it writes.
func NewDigestWriter(w io.Writer) *Writer {
	bw := NewWriter(w)
	bw.h = fnv.New64a()
	return bw
}

func (w *Writer) flush() {
	if w.err == nil && len(w.buf) > 0 {
		if w.h != nil {
			w.h.Write(w.buf)
		}
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// U32 writes x.
func (w *Writer) U32(x uint32) {
	if len(w.buf) > pageBytes-4 {
		w.flush()
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, x)
}

// U64 writes x.
func (w *Writer) U64(x uint64) {
	if len(w.buf) > pageBytes-8 {
		w.flush()
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, x)
}

// Put writes xs, each as a word of T's width.
func Put[T Word](w *Writer, xs []T) {
	if sizeOf[T]() == 4 {
		for _, x := range xs {
			w.U32(uint32(x))
		}
		return
	}
	for _, x := range xs {
		w.U64(uint64(x))
	}
}

// Trailer writes the FNV-64a of everything a digested Writer wrote before
// it, as a u64 outside the digest.
func (w *Writer) Trailer() {
	w.flush()
	sum := w.h.Sum64()
	w.h = nil
	w.U64(sum)
}

// Flush writes out the buffered page and returns the first error.
func (w *Writer) Flush() error {
	w.flush()
	return w.err
}

// Reader decodes little-endian words through a buffered page. A digested
// Reader feeds every byte it consumes to an FNV-64a hash, which Trailer
// checks.
type Reader struct {
	r    *bufio.Reader
	h    hash.Hash64
	err  error
	page [pageBytes]byte
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 2*pageBytes)}
}

// NewDigestReader returns a Reader over r that digests what it reads.
func NewDigestReader(r io.Reader) *Reader {
	br := NewReader(r)
	br.h = fnv.New64a()
	return br
}

// Err returns the first error the Reader met.
func (r *Reader) Err() error { return r.err }

// next consumes the next n ≤ pageBytes bytes, or returns nil once the
// Reader has failed.
func (r *Reader) next(n int) []byte {
	if r.err != nil {
		return nil
	}
	b := r.page[:n]
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.err = err
		return nil
	}
	if r.h != nil {
		r.h.Write(b)
	}
	return b
}

// U64 reads one u64.
func (r *Reader) U64() uint64 {
	if b := r.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Fill reads len(dst) words of T's width into dst.
func Fill[T Word](r *Reader, dst []T) error {
	size := sizeOf[T]()
	for len(dst) > 0 {
		n := min(len(dst), pageBytes/size)
		b := r.next(n * size)
		if b == nil {
			return r.err
		}
		if size == 4 {
			for i := range dst[:n] {
				dst[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
			}
		} else {
			for i := range dst[:n] {
				dst[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
			}
		}
		dst = dst[n:]
	}
	return r.err
}

// Slab reads n words of T's width, or returns nil once the Reader has
// failed. n is untrusted: preallocation stops at maxPrealloc, and past it
// the slab grows a page at a time as the bytes arrive.
func Slab[T Word](r *Reader, n uint64) []T {
	out := make([]T, 0, Cap(n))
	page := uint64(pageBytes / sizeOf[T]())
	for r.err == nil && uint64(len(out)) < n {
		k := int(min(n-uint64(len(out)), page))
		out = slices.Grow(out, k)
		Fill(r, out[len(out):len(out)+k])
		out = out[:len(out)+k]
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Trailer reads the u64 a digested Writer's Trailer wrote and checks it
// against the digest of everything read before it.
func (r *Reader) Trailer() error {
	if r.err != nil {
		return r.err
	}
	want := r.h.Sum64()
	r.h = nil
	if got := r.U64(); r.err == nil && got != want {
		r.err = fmt.Errorf("digest %#x does not match payload %#x", got, want)
	}
	return r.err
}

// End checks that the stream holds nothing more: every reader accepts only
// what its writer would emit, byte for byte.
func (r *Reader) End() error {
	if r.err != nil {
		return r.err
	}
	if _, err := r.r.ReadByte(); err == nil {
		r.err = errors.New("trailing data after the end of the file")
	} else if err != io.EOF {
		r.err = err
	}
	return r.err
}

// Replace writes path through path+".tmp": fill streams the new contents
// into it, and it is synced, closed and renamed over path only if every
// step succeeds, so path holds its old contents or the complete new ones,
// never a torn file, even across a power cut. On failure the temporary
// file is removed. fill's writes reach the file unbuffered. Replace
// returns the new file's size.
func Replace(path string, fill func(io.Writer) error) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	var size int64
	err = fill(f)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		var info os.FileInfo
		if info, err = f.Stat(); err == nil {
			size = info.Size()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return size, nil
}
