package live

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/distributedne/dne/internal/dynpart"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

// runFile names one file of a live directory: partition q's file of kind
// kind (kindBase, tailAdd or tailDead).
type runFile struct {
	kind string
	q    int
}

func (f runFile) path(dir string, numParts int) string { return runPath(dir, f.kind, f.q, numParts) }

// writeRuns writes each file of a numParts-partition live directory: a base
// through graph.WriteCompressedShard (its keys must ascend) with the |V|
// its keys name, a tail as a raw EShard file holding its keys in the order
// given, with an unbounded |V| as Live writes it.
func writeRuns(t testing.TB, dir string, numParts int, files map[runFile][]uint64) {
	t.Helper()
	for f, keys := range files {
		info := graph.ShardInfo{NumVertices: ^uint32(0), Index: uint32(f.q), Count: uint32(numParts)}
		path := f.path(dir, numParts)
		if f.kind == kindBase {
			info.NumVertices = 0
			for _, k := range keys {
				info.NumVertices = max(info.NumVertices, graph.UnpackEdge(k).V+1)
			}
			if err := graph.WriteCompressedShard(path, info, keys); err != nil {
				t.Fatal(err)
			}
			continue
		}
		sw, err := graph.CreateShardFile(path, info)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			sw.AppendPacked(k)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// readKeys returns every packed edge of the shard file at path, in file
// order.
func readKeys(t testing.TB, path string) []uint64 {
	t.Helper()
	_, keys, err := graph.ReadShardFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return keys
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
	sum, edges, place := stateChecksum(st), st.numEdges, st.Place(3, 199)
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
	if stateChecksum(got) != sum {
		t.Fatalf("state checksum %#x, want %#x", stateChecksum(got), sum)
	}
	if got.numEdges != edges || got.cfg.NumParts != 4 {
		t.Fatalf("reopened %d edges on %d partitions, want %d on 4", got.numEdges, got.cfg.NumParts, edges)
	}
	if got.events != 0 {
		t.Fatalf("reopened state counts %d events, want 0 (history counts since Open)", got.events)
	}
	if q := got.Place(3, 199); q != place {
		t.Fatalf("reopened state places (3,199) on %d, original on %d", q, place)
	}
}

// TestStateRejectsHostileInput: Open refuses a live directory whose bases
// or tails are damaged or do not add up, rather than serving a partial or
// invented graph. Each case mutates a valid two-partition directory.
func TestStateRejectsHostileInput(t *testing.T) {
	e := func(u, v graph.Vertex) uint64 { return graph.PackEdge(u, v) }
	base0, dead1 := runFile{kindBase, 0}, runFile{tailDead, 1}
	base1, add1 := runFile{kindBase, 1}, runFile{tailAdd, 1}
	valid := map[runFile][]uint64{
		base0:         {e(0, 1), e(1, 2), e(2, 3)},
		{tailDead, 0}: {e(1, 2)},
		base1:         {e(3, 4)},
		add1:          {e(4, 5)},
		dead1:         nil,
	}
	dir := t.TempDir()
	writeRuns(t, dir, 2, valid)
	l, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("valid directory: %v", err)
	}
	if n := l.State().numEdges; n != 4 {
		t.Fatalf("valid directory holds %d live edges, want 4", n)
	}
	l.Close()

	// patch overwrites a little-endian u32 of one file's header.
	patch := func(f runFile, off int, v uint32) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			path := f.path(dir, 2)
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
	rewrite := func(f runFile, numParts int, keys ...uint64) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) { writeRuns(t, dir, numParts, map[runFile][]uint64{f: keys}) }
	}
	cases := []struct {
		name    string
		mutate  func(t *testing.T, dir string)
		wantErr string
	}{
		{"bad magic", patch(base0, 0, 0xdeadbeef), "magic"},
		{"bad version", patch(dead1, 4, 99), "version"},
		{"zero partitions", patch(base1, 16, 0), "count"},
		{"huge partition count", patch(base0, 16, 1<<30), "declares shard 0 of 1073741824"},
		{"wrong partition index", patch(dead1, 12, 0), "declares shard 0 of 2, want 1 of 2"},
		{"empty file", func(t *testing.T, dir string) {
			if err := os.WriteFile(base1.path(dir, 2), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "header"},
		{"missing insertion log", func(t *testing.T, dir string) {
			if err := os.Remove(base0.path(dir, 2)); err != nil {
				t.Fatal(err)
			}
		}, "no base for partition 0"},
		{"tombstone log past the partitions", rewrite(runFile{tailDead, 2}, 3), "not a file of its 2 partitions"},
		{"tombstone without insertion", rewrite(dead1, 2, e(0, 1)), "log count -1"},
		{"insertion twice", rewrite(add1, 2, e(4, 5), e(3, 4)), "log count 2"},
		{"unbacked vertex id", rewrite(add1, 2, e(4, 5), e(0, 1<<32-2)), ErrVertexClaim.Error()},
		{"edge in two partitions", rewrite(add1, 2, e(4, 5), e(0, 1)), "edge (0,1) held by shards 0 and 1"},
		{"unsorted base", func(t *testing.T, dir string) {
			sw, err := graph.CreateShardFile(base1.path(dir, 2), graph.ShardInfo{NumVertices: 8, Index: 1, Count: 2})
			if err != nil {
				t.Fatal(err)
			}
			sw.AppendPacked(e(5, 6))
			sw.AppendPacked(e(3, 4))
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
		}, "base not sorted"},
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

// TestOpenChecksLogHeaders: the partition count and each file's partition
// come from the headers, not the file names alone. A directory of eight
// bases and nothing else opens; the same directory with one base deleted,
// or two swapped, is refused instead of opening with partitions dropped or
// exchanged. Subtests name partition q's base part-000q, its insertion file.
func TestOpenChecksLogHeaders(t *testing.T) {
	const parts = 8
	bases := make(map[runFile][]uint64, parts)
	for q := 0; q < parts; q++ {
		for i := 0; i < 10; i++ {
			u := graph.Vertex(q*16 + i)
			bases[runFile{kindBase, q}] = append(bases[runFile{kindBase, q}], graph.PackEdge(u, u+1))
		}
	}
	build := func() string {
		dir := t.TempDir()
		writeRuns(t, dir, parts, bases)
		return dir
	}
	l, err := Open(build(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if l.State().cfg.NumParts != parts || l.State().numEdges != parts*10 {
		t.Fatalf("opened %d partitions, %d edges; want %d, %d", l.State().cfg.NumParts, l.State().numEdges, parts, parts*10)
	}
	l.Close()

	base := func(dir string, q int) string { return runPath(dir, kindBase, q, parts) }
	for _, tc := range []struct {
		name   string
		mutate func(dir string) error
	}{
		{"delete part-0000", func(dir string) error { return os.Remove(base(dir, 0)) }},
		{"delete part-0005", func(dir string) error { return os.Remove(base(dir, 5)) }},
		{"delete part-0007", func(dir string) error { return os.Remove(base(dir, 7)) }},
		{"swap part-0001 and part-0002", func(dir string) error {
			a, b := base(dir, 1), base(dir, 2)
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
				t.Fatalf("opened with %d partitions and %d edges", l.State().cfg.NumParts, l.State().numEdges)
			}
		})
	}

	// A crash while Open writes a fresh directory's empty bases, highest
	// partition first and base 0 last, leaves a set without base 0 that
	// holds no edge: the next Open starts over.
	t.Run("partial fresh directory", func(t *testing.T) {
		dir := t.TempDir()
		empty := map[runFile][]uint64{}
		for q := 0; q < parts; q++ {
			empty[runFile{tailDead, q}] = nil
		}
		for q := parts / 2; q < parts; q++ {
			empty[runFile{kindBase, q}] = nil
		}
		writeRuns(t, dir, parts, empty)
		l, err := Open(dir, Config{NumParts: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if l.State().cfg.NumParts != 4 || l.State().numEdges != 0 {
			t.Fatalf("opened %d partitions, %d edges; want 4, 0", l.State().cfg.NumParts, l.State().numEdges)
		}
	})
}

// TestCompactionCrashStates: compaction rebases one partition at a time —
// write the base's .next, remove the tombstone tail (the commit), remove
// the insertion tail, rename the .next over the base — and then recreates
// the tails, the insertion tails first. A crash can stop
// it after any of those steps, with earlier partitions done and later ones
// untouched, or inside a write, leaving a temp file. Every such directory,
// built here from copies of the files before and after a compaction, must
// open to the graph and placement state from before the compaction, with
// nothing left over. The history re-adds a deleted edge on its old
// partition, which a new base replayed against the old tombstone tail would
// lose. Subtests name partition q's base and insertion tail part-000q.esh,
// and its tombstone tail dead-000q.esh.
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
	wantLive, wantState := l.Checksum(), stateChecksum(l.State())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	readded := false
	for q := 0; q < parts; q++ {
		seen := make(map[uint64]int)
		for _, k := range readKeys(t, runPath(pre, tailAdd, q, parts)) {
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
	name := func(kind string, q int) string { return filepath.Base(runFile{kind, q}.path("", parts)) }
	base := func(q int) string { return name(kindBase, q) }
	add := func(q int) string { return name(tailAdd, q) }
	dead := func(q int) string { return name(tailDead, q) }
	// rebasing returns the files while partition q is at rebase step s:
	// partitions before q are rebased, those after it untouched.
	rebasing := func(q, s int) files {
		fs := files{}
		for p := 0; p < parts; p++ {
			if p < q || p == q && s == 5 {
				fs[base(p)] = read(post, base(p))
			} else {
				fs[base(p)], fs[add(p)], fs[dead(p)] = read(pre, base(p)), read(pre, add(p)), read(pre, dead(p))
			}
		}
		next := read(post, base(q))
		switch s {
		case 1: // inside the write of the .next
			fs[base(q)+nextSuffix+".tmp"] = next[:len(next)/2]
		case 2: // .next written, not committed
			fs[base(q)+nextSuffix] = next
		case 3: // committed
			fs[base(q)+nextSuffix] = next
			delete(fs, dead(q))
		case 4: // insertion tail removed, not renamed
			fs[base(q)+nextSuffix] = next
			delete(fs, dead(q))
			delete(fs, add(q))
		}
		return fs
	}
	type state struct {
		name string
		fs   files
	}
	var states []state
	for q := 0; q < parts; q++ {
		for s, step := range []string{"untouched", "writing .next", ".next written", "dead removed", "insertion tail removed", "renamed"} {
			states = append(states, state{fmt.Sprintf("part-%04d.esh %s", q, step), rebasing(q, s)})
		}
	}
	// After the rebases, the tails are recreated one by one: every
	// insertion tail, then every tombstone tail.
	for _, kind := range []string{tailAdd, tailDead} {
		for q := 0; q < parts; q++ {
			fs := rebasing(parts-1, 5)
			for p := 0; p < parts; p++ {
				if kind == tailDead {
					fs[add(p)] = read(post, add(p))
				}
				if p < q {
					fs[name(kind, p)] = read(post, name(kind, p))
				}
			}
			fs[name(kind, q)+".tmp"] = nil
			label := map[string]string{tailAdd: "part", tailDead: "dead"}[kind]
			states = append(states, state{fmt.Sprintf("writing %s-%04d.esh", label, q), fs})
		}
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
				live, st := l.Checksum(), stateChecksum(l.State())
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
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			bases := 0
			for _, e := range ents {
				m := layoutName.FindStringSubmatch(e.Name())
				if m == nil || m[3] == kindBase+nextSuffix {
					t.Fatalf("left behind %s", e.Name())
				}
				if m[3] == kindBase {
					bases++
				}
			}
			if bases != parts {
				t.Fatalf("%d bases left, want one for each of %d partitions", bases, parts)
			}
		})
	}
}
