package live

import (
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/distributedne/dne/internal/dynpart"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

// logFile names one log of a live directory: its kind and partition.
type logFile struct {
	kind string
	q    int
}

// writeLogs writes each log of a numParts-partition live directory with
// writeLogFile.
func writeLogs(t testing.TB, dir string, numParts int, logs map[logFile][]uint64) {
	t.Helper()
	for f, keys := range logs {
		if err := writeLogFile(logPath(dir, f.kind, f.q), f.q, numParts, keys); err != nil {
			t.Fatal(err)
		}
	}
}

// readKeys returns every packed edge of the log at path, in log order.
func readKeys(t testing.TB, path string) []uint64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sr, err := graph.NewShardReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var out []uint64
	for {
		chunk, err := sr.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, chunk...)
	}
}

// copyDir copies the regular files of src into a fresh directory.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestStateRoundTrip: the logs a live graph leaves behind reopen to the
// exact placement state that wrote them — checksum, edge count, partition
// count, invariants — so future arrivals are placed identically.
func TestStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Config{NumParts: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g := gen.ER(200, 900, 3)
	applyAll(t, l, arrivalStream(g, 3), 128)
	var dels []dynpart.Event
	for i, e := range g.Edges() {
		if i%7 == 0 {
			dels = append(dels, dynpart.Event{Op: dynpart.Remove, Edge: e})
		}
	}
	applyAll(t, l, dels, 64)
	st := l.State()
	sum, edges, place := st.Checksum(), st.NumEdges(), st.Place(3, 199)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := l.State()
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got.Checksum() != sum {
		t.Fatalf("state checksum %#x, want %#x", got.Checksum(), sum)
	}
	if got.NumEdges() != edges || got.NumParts() != 4 {
		t.Fatalf("reopened %d edges on %d partitions, want %d on 4", got.NumEdges(), got.NumParts(), edges)
	}
	if got.Events() != 0 {
		t.Fatalf("reopened state counts %d events, want 0 (history counts since Open)", got.Events())
	}
	if q := got.Place(3, 199); q != place {
		t.Fatalf("reopened state places (3,199) on %d, original on %d", q, place)
	}
}

// TestStateRejectsHostileInput: Open refuses a live directory whose logs
// are damaged or do not add up, rather than serving a partial or invented
// graph. Each case mutates a valid two-partition directory.
func TestStateRejectsHostileInput(t *testing.T) {
	e := func(u, v graph.Vertex) uint64 { return graph.PackEdge(u, v) }
	valid := map[logFile][]uint64{
		{"part", 0}: {e(0, 1), e(1, 2), e(2, 3)},
		{"dead", 0}: {e(1, 2)},
		{"part", 1}: {e(3, 4), e(4, 5)},
		{"dead", 1}: nil,
	}
	dir := t.TempDir()
	writeLogs(t, dir, 2, valid)
	l, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("valid directory: %v", err)
	}
	if n := l.State().NumEdges(); n != 4 {
		t.Fatalf("valid directory holds %d live edges, want 4", n)
	}
	l.Close()

	// patch overwrites a little-endian u32 of one log's header.
	patch := func(name string, off int, v uint32) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			path := filepath.Join(dir, name)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint32(b[off:], v)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	rewrite := func(f logFile, numParts int, keys ...uint64) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) { writeLogs(t, dir, numParts, map[logFile][]uint64{f: keys}) }
	}
	cases := []struct {
		name    string
		mutate  func(t *testing.T, dir string)
		wantErr string
	}{
		{"bad magic", patch("part-0000.esh", 0, 0xdeadbeef), "magic"},
		{"bad version", patch("dead-0001.esh", 4, 99), "version"},
		{"zero partitions", patch("part-0001.esh", 16, 0), "count"},
		{"huge partition count", patch("part-0000.esh", 16, 1<<30), "declares log 0 of 1073741824"},
		{"wrong partition index", patch("dead-0001.esh", 12, 0), "declares log 0 of 2, want 1 of 2"},
		{"empty file", func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, "part-0001.esh"), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "header"},
		{"missing insertion log", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, "part-0000.esh")); err != nil {
				t.Fatal(err)
			}
		}, "no insertion log for partition 0"},
		{"tombstone log past the partitions", rewrite(logFile{"dead", 2}, 3), "tombstone log for partition 2"},
		{"tombstone without insertion", rewrite(logFile{"dead", 1}, 2, e(0, 1)), "log count -1"},
		{"insertion twice", rewrite(logFile{"part", 1}, 2, e(3, 4), e(4, 5), e(3, 4)), "log count 2"},
		{"unbacked vertex id", rewrite(logFile{"part", 1}, 2, e(3, 4), e(0, 1<<32-2)), ErrVertexClaim.Error()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := copyDir(t, dir)
			tc.mutate(t, d)
			l, err := Open(d, Config{})
			if err == nil {
				l.Close()
				t.Fatal("hostile live directory opened without error")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	l, err = Open(copyDir(t, dir), Config{})
	if err != nil {
		t.Fatalf("the cases mutated the shared directory: %v", err)
	}
	l.Close()
}

// TestOpenChecksLogHeaders: the partition count and each log's partition
// come from the log headers, not the file names alone. A directory of
// eight insertion logs and nothing else opens; the same directory with one
// log deleted, or two swapped, is refused instead of opening with
// partitions dropped or exchanged.
func TestOpenChecksLogHeaders(t *testing.T) {
	const parts = 8
	logs := make(map[logFile][]uint64, parts)
	for q := 0; q < parts; q++ {
		for i := 0; i < 10; i++ {
			u := graph.Vertex(q*16 + i)
			logs[logFile{"part", q}] = append(logs[logFile{"part", q}], graph.PackEdge(u, u+1))
		}
	}
	build := func() string {
		dir := t.TempDir()
		writeLogs(t, dir, parts, logs)
		return dir
	}
	l, err := Open(build(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if l.State().NumParts() != parts || l.State().NumEdges() != parts*10 {
		t.Fatalf("opened %d partitions, %d edges; want %d, %d", l.State().NumParts(), l.State().NumEdges(), parts, parts*10)
	}
	l.Close()

	for _, tc := range []struct {
		name   string
		mutate func(dir string) error
	}{
		{"delete part-0000", func(dir string) error { return os.Remove(logPath(dir, "part", 0)) }},
		{"delete part-0005", func(dir string) error { return os.Remove(logPath(dir, "part", 5)) }},
		{"delete part-0007", func(dir string) error { return os.Remove(logPath(dir, "part", 7)) }},
		{"swap part-0001 and part-0002", func(dir string) error {
			a, b := logPath(dir, "part", 1), logPath(dir, "part", 2)
			if err := os.Rename(a, a+".swap"); err != nil {
				return err
			}
			if err := os.Rename(b, a); err != nil {
				return err
			}
			return os.Rename(a+".swap", b)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := build()
			if err := tc.mutate(dir); err != nil {
				t.Fatal(err)
			}
			if l, err := Open(dir, Config{}); err == nil {
				t.Fatalf("opened with %d partitions and %d edges", l.State().NumParts(), l.State().NumEdges())
			}
		})
	}

	// A crash while Open writes a fresh directory's empty logs, tombstone
	// logs first and part-0000.esh last, leaves a set without part-0000.esh
	// that holds no edge: the next Open starts over.
	t.Run("partial fresh directory", func(t *testing.T) {
		dir := t.TempDir()
		empty := map[logFile][]uint64{}
		for q := 0; q < parts; q++ {
			empty[logFile{"dead", q}] = nil
		}
		for q := parts / 2; q < parts; q++ {
			empty[logFile{"part", q}] = nil
		}
		writeLogs(t, dir, parts, empty)
		l, err := Open(dir, Config{NumParts: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if l.State().NumParts() != 4 || l.State().NumEdges() != 0 {
			t.Fatalf("opened %d partitions, %d edges; want 4, 0", l.State().NumParts(), l.State().NumEdges())
		}
	})
}

// TestCompactionCrashStates: compaction rewrites one partition at a time —
// write part-q.esh.next, remove dead-q.esh (the commit), rename the .next
// over part-q.esh — and then recreates the tombstone logs. A crash can stop
// it after any of those steps, with earlier partitions done and later ones
// untouched, or inside a write, leaving a temp file. Every such directory,
// built here from copies of the logs before and after a compaction, must
// open to the graph and placement state from before the compaction, with
// nothing left over. The history re-adds a deleted edge on its old
// partition, which a new insertion log replayed against the old tombstone
// log would lose.
func TestCompactionCrashStates(t *testing.T) {
	const parts = 3
	g := gen.ER(120, 500, 5)
	events := arrivalStream(g, 5)
	for i, e := range g.Edges() {
		if i%4 == 0 {
			events = append(events, dynpart.Event{Op: dynpart.Remove, Edge: e})
		}
	}
	for i, e := range g.Edges() {
		if i%8 == 0 {
			events = append(events, dynpart.Event{Op: dynpart.Add, Edge: e})
		}
	}
	pre := t.TempDir()
	l, err := Open(pre, Config{NumParts: parts})
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, l, events, 100)
	wantLive, wantState := l.Checksum(), l.State().Checksum()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	readded := false
	for q := 0; q < parts; q++ {
		seen := make(map[uint64]int)
		for _, k := range readKeys(t, logPath(pre, "part", q)) {
			if seen[k]++; seen[k] == 2 {
				readded = true
			}
		}
	}
	if !readded {
		t.Fatal("no edge was re-added on the partition it was deleted from")
	}

	post := copyDir(t, pre)
	if l, err = Open(post, Config{}); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	read := func(dir, name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	type files map[string][]byte
	part := func(q int) string { return filepath.Base(logPath("", "part", q)) }
	dead := func(q int) string { return filepath.Base(logPath("", "dead", q)) }
	// rewriting returns the files while partition q is at rewrite step s:
	// partitions before q are rewritten, those after it untouched.
	rewriting := func(q, s int) files {
		fs := files{}
		for p := 0; p < parts; p++ {
			switch {
			case p < q || p == q && s == 4:
				fs[part(p)] = read(post, part(p))
			default:
				fs[part(p)], fs[dead(p)] = read(pre, part(p)), read(pre, dead(p))
			}
		}
		next := read(post, part(q))
		switch s {
		case 1: // inside the write of the .next
			fs[part(q)+nextSuffix+".tmp"] = next[:len(next)/2]
		case 2: // .next written, not committed
			fs[part(q)+nextSuffix] = next
		case 3: // committed, not renamed
			fs[part(q)+nextSuffix] = next
			delete(fs, dead(q))
		}
		return fs
	}
	type state struct {
		name string
		fs   files
	}
	var states []state
	for q := 0; q < parts; q++ {
		for s, step := range []string{"untouched", "writing .next", ".next written", "dead removed", "renamed"} {
			states = append(states, state{part(q) + " " + step, rewriting(q, s)})
		}
	}
	// After the rewrites, the tombstone logs are recreated one by one,
	// highest partition first.
	for q := parts - 1; q >= 0; q-- {
		fs := rewriting(parts-1, 4)
		for p := q + 1; p < parts; p++ {
			fs[dead(p)] = read(post, dead(p))
		}
		fs[dead(q)+".tmp"] = nil
		states = append(states, state{"writing " + dead(q), fs})
	}

	for _, tc := range states {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, b := range tc.fs {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for round := 0; round < 2; round++ {
				l, err := Open(dir, Config{})
				if err != nil {
					t.Fatalf("open %d: %v", round, err)
				}
				live, st := l.Checksum(), l.State().Checksum()
				if err := l.State().CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				if live != wantLive || st != wantState {
					t.Fatalf("open %d: checksums %#x/%#x, before the compaction %#x/%#x", round, live, st, wantLive, wantState)
				}
			}
			left, err := filepath.Glob(filepath.Join(dir, "*.esh.*"))
			if err != nil || len(left) != 0 {
				t.Fatalf("left behind %v (%v)", left, err)
			}
		})
	}
}
