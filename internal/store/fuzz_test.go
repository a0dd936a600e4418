package store

import (
	"os"
	"runtime"
	"slices"
	"testing"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

// FuzzSnapshotReader fuzzes the read path a persisted store is restored
// through, ReadDir, over one- and two-file directories: first and second
// are the files' bytes, and an empty second means a one-file directory.
// Any input either errors or loads a store that WriteDir writes and ReadDir
// reads back identically, whose adjacency is symmetric, sorted and free of
// self loops. It never panics, and it allocates in proportion to the vertex
// claim its edges back (graph.VertexClaimOK), not to what its headers
// declare.
//
// Run locally with:
//
//	go test -run='^$' -fuzz=FuzzSnapshotReader -fuzztime=30s ./internal/store
func FuzzSnapshotReader(f *testing.F) {
	g := gen.RMAT(5, 4, 3)
	one := fileBytes(f, saveDir(f, buildRandom(f, g, 1, 1)))[0]
	two := fileBytes(f, saveDir(f, buildRandom(f, g, 2, 1)))
	f.Add(one, []byte(nil))
	f.Add(two[0], two[1])
	for _, cut := range []int{0, 27, 28, len(one) / 2, len(one) - 1} {
		f.Add(one[:cut], []byte(nil))
	}
	f.Add(two[0], two[1][:len(two[1])-1])
	for _, name := range []string{"self-loop", "duplicate-edge", "unsorted-targets"} {
		f.Add(inconsistentShards()[name], []byte(nil))
	}
	f.Add(two[0], two[0])

	f.Fuzz(func(t *testing.T, first, second []byte) {
		files := [][]byte{first, second}
		if len(second) == 0 {
			files = files[:1]
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := readFiles(t, files...)
		runtime.ReadMemStats(&after)
		// The claim admits 2^20 vertices for free and 256 per edge beyond;
		// an edge costs at least a byte of input.
		claim := max(1<<20, 256*uint64(len(first)+len(second)))
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, 64*claim; alloc > limit {
			t.Fatalf("reading %d bytes allocated %d bytes, over %d", len(first)+len(second), alloc, limit)
		}
		if err != nil {
			if err.Error() == "" {
				t.Fatal("empty error message")
			}
			return
		}
		again, err := ReadDir(saveDir(t, st))
		if err != nil {
			t.Fatalf("rereading a written store: %v", err)
		}
		if err := storeDiff(st, again); err != nil {
			t.Fatalf("written and reread: %v", err)
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

// fileBytes returns the bytes of dir's shard files in name order.
func fileBytes(t testing.TB, dir string) [][]byte {
	t.Helper()
	var out [][]byte
	for _, p := range shardFiles(t, dir) {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}
