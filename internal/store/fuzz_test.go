package store

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"github.com/distributedne/dne/internal/graph"
)

// FuzzSnapshotReader fuzzes the DNS1 decoder, which faces bytes from disk.
// Any byte string either decodes to a store that is exactly what
// BuildFromShards would build — it re-encodes to the same bytes and its
// adjacency is symmetric, sorted and free of self loops — or returns an
// error. It never panics, and it allocates in proportion to the input, not
// to the counts its header declares.
//
// Run locally with:
//
//	go test -run='^$' -fuzz=FuzzSnapshotReader -fuzztime=30s ./internal/store
func FuzzSnapshotReader(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, pinnedStore(f)); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	for _, cut := range []int{0, 23, 24, 24 + 4*1024, 24 + 4*1024 + 4, len(full) / 2, len(full) - 1} {
		f.Add(full[:cut])
	}
	for _, b := range inconsistentSnapshots() {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := ReadSnapshot(bytes.NewReader(data))
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
		if err := WriteSnapshot(&out, st); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), out.Len())
		}
		for v := graph.Vertex(0); v < st.NumVertices(); v++ {
			ns, err := st.Neighbors(v)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range ns {
				if w == v || (i > 0 && w <= ns[i-1]) {
					t.Fatalf("Neighbors(%d) = %v: self loop or not strictly increasing", v, ns)
				}
				back, err := st.Neighbors(w)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := slices.BinarySearch(back, v); !ok {
					t.Fatalf("%d lists %d, but %d does not list %d", v, w, w, v)
				}
			}
		}
	})
}
