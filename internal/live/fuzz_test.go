package live

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/distributedne/dne/internal/dynpart"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/partition"
)

// fuzzFiles lists the files FuzzLiveOpen's arguments fill, in argument
// order, in a numParts-partition directory: partition 0's base, its tails
// and a pending .next of its base, then partition 1's base and tails
// (left out for one partition).
func fuzzFiles(dir string, numParts int) []string {
	paths := []string{
		runPath(dir, kindBase, 0, numParts), runPath(dir, tailAdd, 0, numParts),
		runPath(dir, tailDead, 0, numParts), runPath(dir, kindBase, 0, numParts) + nextSuffix,
	}
	if numParts == 2 {
		paths = append(paths, runPath(dir, kindBase, 1, 2), runPath(dir, tailAdd, 1, 2), runPath(dir, tailDead, 1, 2))
	}
	return paths
}

// readFuzzFiles returns the contents of dir's fuzzFiles, nil where the
// directory has no such file.
func readFuzzFiles(t testing.TB, dir string, numParts int) [7][]byte {
	t.Helper()
	var out [7][]byte
	for i, path := range fuzzFiles(dir, numParts) {
		b, err := os.ReadFile(path)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// churnedDir returns a closed numParts-partition live directory with churn
// behind it, compacted once midway, so its bases and tails all hold edges.
func churnedDir(t testing.TB, numParts int) string {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, Config{NumParts: numParts})
	if err != nil {
		t.Fatal(err)
	}
	events := dynpart.Churn(gen.ER(40, 120, 2), 300, 0.3, 2)
	if _, err := l.Apply(events[:200]); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Apply(events[200:]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// FuzzLiveOpen fuzzes Open over one- and two-partition live directories,
// whose bases and tails face bytes from disk. The arguments are the
// contents of the fuzzFiles, and a directory has two partitions when any of
// partition 1's files is given; an empty argument leaves that file out.
// Open either errors or yields a placement state that passes
// CheckInvariants and that a Close and a second Open reproduce checksum for
// checksum. It never panics, and opening and building the state allocate
// in proportion to the vertex claim the edges back (graph.VertexClaimOK),
// not to what the headers declare.
//
// Run locally with:
//
//	go test -run='^$' -fuzz=FuzzLiveOpen -fuzztime=30s ./internal/live
func FuzzLiveOpen(f *testing.F) {
	one, two := readFuzzFiles(f, churnedDir(f, 1), 1), churnedDir(f, 2)
	files := readFuzzFiles(f, two, 2)
	f.Add(one[0], one[1], one[2], one[3], one[4], one[5], one[6])
	f.Add(files[0], files[1], files[2], files[3], files[4], files[5], files[6])
	add := files[1]
	for _, cut := range []int{0, 15, 28, len(add) / 2, len(add) - 8, len(add) - 1} {
		f.Add(files[0], add[:cut], files[2], files[3], files[4], files[5], files[6])
	}
	f.Add(files[0], append(bytes.Clone(add), 0), files[2], files[3], files[4], files[5], files[6])

	// A created directory: bases and no tails.
	g := gen.ER(40, 120, 2)
	p := partition.New(2, g.NumEdges())
	for i := range p.Owner {
		p.Owner[i] = int32(i % 2)
	}
	s := readFuzzFiles(f, createDir(f, g, p), 2)
	f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6])

	// A compaction's .next of partition 0, beside the tombstone tail it
	// has not yet removed, and past that commit.
	l, err := Open(two, Config{})
	if err != nil {
		f.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		f.Fatal(err)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	next := readFuzzFiles(f, two, 2)[0]
	f.Add(files[0], files[1], files[2], next, files[4], files[5], files[6])
	f.Add(files[0], files[1], []byte{}, next, files[4], files[5], files[6])

	f.Fuzz(func(t *testing.T, base0, add0, dead0, next0, base1, add1, dead1 []byte) {
		dir := t.TempDir()
		args := [][]byte{base0, add0, dead0, next0, base1, add1, dead1}
		numParts := 1
		if len(base1)+len(add1)+len(dead1) > 0 {
			numParts = 2
		}
		for i, path := range fuzzFiles(dir, numParts) {
			if len(args[i]) == 0 {
				continue
			}
			if err := os.WriteFile(path, args[i], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, err := Open(dir, Config{})
		if err == nil {
			l.State()
		}
		runtime.ReadMemStats(&after)
		// The claim admits 2^20 vertices for free and 256 per edge beyond;
		// an edge costs at least a byte of input.
		in := 0
		for _, b := range args {
			in += len(b)
		}
		claim := max(1<<20, 256*uint64(in))
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, 64*claim; alloc > limit {
			t.Fatalf("opening %d bytes allocated %d bytes, over %d", in, alloc, limit)
		}
		if err != nil {
			if err.Error() == "" {
				t.Fatal("empty error message")
			}
			return
		}
		if err := l.State().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		live, st := l.Checksum(), stateChecksum(l.State())
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, err = Open(dir, Config{})
		if err != nil {
			t.Fatalf("reopening an opened directory: %v", err)
		}
		defer l.Close()
		if l.Checksum() != live || stateChecksum(l.State()) != st {
			t.Fatalf("reopened to %#x/%#x, first open %#x/%#x", l.Checksum(), stateChecksum(l.State()), live, st)
		}
		for _, pattern := range []string{"*.tmp", "*" + nextSuffix} {
			if left, _ := filepath.Glob(filepath.Join(dir, pattern)); len(left) != 0 {
				t.Fatalf("left behind %v", left)
			}
		}
	})
}
