package live

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzStateReader fuzzes the DLS1 decoder, which faces bytes from disk. Any
// byte string either decodes to a state that re-encodes to the same bytes
// or returns an error. It never panics, and it allocates in proportion to
// the input, not to the counts its header declares.
//
// Run locally with:
//
//	go test -run='^$' -fuzz=FuzzStateReader -fuzztime=30s ./internal/live
func FuzzStateReader(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteState(&buf, populatedState(f)); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	for _, cut := range []int{0, 15, 72, 72 + 4*8, len(full) / 2, len(full) - 8, len(full) - 1} {
		f.Add(full[:cut])
	}
	f.Add(append(bytes.Clone(full), 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := ReadState(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if limit := uint64(4<<20 + 256*len(data)); after.TotalAlloc-before.TotalAlloc > limit {
			t.Fatalf("reading %d bytes allocated %d bytes, over %d", len(data), after.TotalAlloc-before.TotalAlloc, limit)
		}
		if err != nil {
			if err.Error() == "" {
				t.Fatal("empty error message")
			}
			return
		}
		var out bytes.Buffer
		if err := WriteState(&out, st); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), out.Len())
		}
	})
}
