package binio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// TestWordsRoundTrip writes scalars and slabs of every word type across
// several pages, digested, and reads back the same values.
func TestWordsRoundTrip(t *testing.T) {
	u32 := make([]uint32, 3*pageBytes/4+7)
	i64 := make([]int64, pageBytes/8+3)
	for i := range u32 {
		u32[i] = uint32(i * 2654435761)
	}
	for i := range i64 {
		i64[i] = -int64(i) << 20
	}
	i32 := []int32{-1, 0, 1 << 30}
	var buf bytes.Buffer
	w := NewDigestWriter(&buf)
	w.U32(7)
	Put(w, u32)
	w.U64(1 << 40)
	Put(w, i64)
	Put(w, i32)
	w.Trailer()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := 4 + 4*len(u32) + 8 + 8*len(i64) + 4*len(i32) + 8; buf.Len() != want {
		t.Fatalf("wrote %d bytes, want %d", buf.Len(), want)
	}

	r := NewDigestReader(&buf)
	if got := Slab[uint32](r, 1); !slices.Equal(got, []uint32{7}) {
		t.Fatalf("u32 = %v", got)
	}
	if got := Slab[uint32](r, uint64(len(u32))); !slices.Equal(got, u32) {
		t.Fatal("u32 slab differs")
	}
	if got := r.U64(); got != 1<<40 {
		t.Fatalf("U64 = %d", got)
	}
	if got := Slab[int64](r, uint64(len(i64))); !slices.Equal(got, i64) {
		t.Fatal("i64 slab differs")
	}
	got := make([]int32, len(i32))
	if err := Fill(r, got); err != nil || !slices.Equal(got, i32) {
		t.Fatalf("Fill = %v, %v", got, err)
	}
	if err := r.Trailer(); err != nil {
		t.Fatal(err)
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRejects: a flipped payload byte fails the trailer, a trailing
// byte fails End, and a short stream leaves a sticky error with zero reads.
func TestReaderRejects(t *testing.T) {
	var buf bytes.Buffer
	w := NewDigestWriter(&buf)
	Put(w, []uint64{1, 2, 3})
	w.Trailer()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	bad := bytes.Clone(good)
	bad[3] ^= 1
	r := NewDigestReader(bytes.NewReader(bad))
	Slab[uint64](r, 3)
	if err := r.Trailer(); err == nil {
		t.Error("flipped payload byte passed the trailer")
	}

	r = NewDigestReader(bytes.NewReader(append(bytes.Clone(good), 0)))
	Slab[uint64](r, 3)
	if err := r.Trailer(); err != nil {
		t.Fatal(err)
	}
	if err := r.End(); err == nil {
		t.Error("trailing byte passed End")
	}

	r = NewReader(bytes.NewReader(good[:12]))
	if xs := Slab[uint64](r, 3); xs != nil || r.Err() == nil {
		t.Fatalf("short slab = %v, %v", xs, r.Err())
	}
	if x := r.U64(); x != 0 || !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("read after failure = %d, %v", x, r.Err())
	}
}

// TestSlabHugeCountAllocatesByData: a count of 2^40 over 64 bytes fails on
// the short read after preallocating at most maxPrealloc words.
func TestSlabHugeCountAllocatesByData(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewReader(bytes.NewReader(make([]byte, 64)))
	xs := Slab[uint64](r, 1<<40)
	runtime.ReadMemStats(&after)
	if xs != nil || r.Err() == nil {
		t.Fatal("2^40 words read from 64 bytes")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
		t.Fatalf("allocated %d bytes", grew)
	}
}

// TestReplace: a successful fill replaces the file whole; a failing fill
// keeps the old contents and leaves no temporary file.
func TestReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	if n, err := Replace(path, write("first")); err != nil || n != 5 {
		t.Fatalf("Replace = %d, %v", n, err)
	}
	errFill := errors.New("fill failed")
	_, err := Replace(path, func(w io.Writer) error {
		if err := write("torn")(w); err != nil {
			return err
		}
		return errFill
	})
	if !errors.Is(err, errFill) {
		t.Fatalf("Replace = %v, want the fill error", err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "first" {
		t.Fatalf("after a failed fill the file holds %q, %v", b, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: %v", err)
	}
}
