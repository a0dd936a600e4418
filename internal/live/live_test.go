package live

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/distributedne/dne/internal/dynpart"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
	"github.com/distributedne/dne/internal/store"
)

// arrivalStream returns g's edges as insertion events in a seeded random
// arrival order — the live workload shape: edges trickle in, not sorted.
func arrivalStream(g *graph.Graph, seed int64) []dynpart.Event {
	rng := rand.New(rand.NewSource(seed))
	edges := g.Edges()
	out := make([]dynpart.Event, len(edges))
	for i, p := range rng.Perm(len(edges)) {
		out[i] = dynpart.Event{Op: dynpart.Add, Edge: edges[p]}
	}
	return out
}

func applyAll(t *testing.T, l *Live, events []dynpart.Event, batch int) int {
	t.Helper()
	changed := 0
	for i := 0; i < len(events); i += batch {
		n, err := l.Apply(events[i:min(i+batch, len(events))])
		if err != nil {
			t.Fatal(err)
		}
		changed += n
	}
	return changed
}

// TestLiveIngestServesGraph: ingesting a whole graph must leave an epoch
// answering Degree/Neighbors/KHop exactly like a batch-built store over
// the same edges.
func TestLiveIngestServesGraph(t *testing.T) {
	g := gen.RMAT(9, 8, 3)
	l, err := Open(t.TempDir(), Config{NumParts: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	events := arrivalStream(g, 7)
	if n := applyAll(t, l, events, 1000); n != int(g.NumEdges()) {
		t.Fatalf("applied %d events, graph has %d edges", n, g.NumEdges())
	}
	if err := l.State().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Re-inserting everything is a full no-op.
	if n := applyAll(t, l, events, 997); n != 0 {
		t.Fatalf("re-insert changed %d edges", n)
	}

	ep := l.Epoch()
	packed := make([][]uint64, ep.NumShards())
	for s := range packed {
		packed[s] = ep.ShardEdgesPacked(s)
	}
	ref, err := store.BuildFromShards(ep.NumVertices(), packed)
	if err != nil {
		t.Fatal(err)
	}
	if ref.NumEdges() != g.NumEdges() {
		t.Fatalf("epoch holds %d edges, graph has %d", ref.NumEdges(), g.NumEdges())
	}
	// The live universe covers every vertex with an edge; trailing isolated
	// vertices of g may sit beyond it.
	n := min(ep.NumVertices(), g.NumVertices())
	for v := graph.Vertex(n); v < g.NumVertices(); v++ {
		if len(g.Neighbors(v)) != 0 {
			t.Fatalf("vertex %d has edges but is outside the live universe [0,%d)", v, n)
		}
	}
	for v := graph.Vertex(0); v < n; v++ {
		want, _ := ref.Neighbors(v)
		got, err := ep.Neighbors(v)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("neighbors[%d] = %v, want %v", v, got, want)
		}
		if slices.Compare(got, g.Neighbors(v)) != 0 {
			t.Fatalf("neighbors[%d] diverge from the source graph", v)
		}
	}
	kl, err := ep.KHop(context.Background(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	kr, err := ref.KHop(context.Background(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(kl.Vertices, kr.Vertices) {
		t.Fatal("khop diverges from the rebuilt store")
	}
}

// TestLiveRejectsUnbackedVertexIDs: an insertion whose endpoint would size
// the per-vertex slabs beyond graph's claim rule (ids up to 1<<20 free,
// beyond that 256 per live edge) rejects the whole batch before anything is
// logged or placed, as does an unknown op.
func TestLiveRejectsUnbackedVertexIDs(t *testing.T) {
	l, err := Open(t.TempDir(), Config{NumParts: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	add := func(u, v graph.Vertex) dynpart.Event {
		return dynpart.Event{Op: dynpart.Add, Edge: graph.Edge{U: u, V: v}}
	}
	if _, err := l.Apply([]dynpart.Event{add(0, 1), add(1, 2)}); err != nil {
		t.Fatal(err)
	}
	before := stateChecksum(l.State())
	seq := l.Epoch().Seq()
	for _, batch := range [][]dynpart.Event{
		{add(2, 3), add(0, 1<<32-1)},
		{add(2, 3), add(7, 1<<20)},
		{add(2, 3), {Op: 99, Edge: graph.Edge{U: 0, V: 1}}},
	} {
		n, err := l.Apply(batch)
		if err == nil {
			t.Fatalf("batch %v accepted", batch)
		}
		if n != 0 || stateChecksum(l.State()) != before || l.Epoch().Seq() != seq || l.State().numEdges != 2 {
			t.Fatalf("rejected batch %v changed state: applied %d, %d edges", batch, n, l.State().numEdges)
		}
	}
	if _, err := l.Apply([]dynpart.Event{add(0, 1<<32-1)}); !errors.Is(err, ErrVertexClaim) {
		t.Fatalf("high id: err %v, want ErrVertexClaim", err)
	}
	// Ids below 1<<20 are free.
	if _, err := l.Apply([]dynpart.Event{add(7, 1<<20-1)}); err != nil {
		t.Fatalf("backed id rejected: %v", err)
	}
	// Repeats of a live edge log nothing, so they back nothing.
	batch := make([]dynpart.Event, 1<<12)
	for i := range batch {
		batch[i] = add(2, 3)
	}
	if _, err := l.Apply(append(batch, add(9, 1<<20+5))); !errors.Is(err, ErrVertexClaim) {
		t.Fatalf("id backed by repeats: err %v, want ErrVertexClaim", err)
	}
	if err := l.State().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveReopensAfterMassDeletion: Open counts every logged key,
// tombstones included, toward the vertex claim, and a compaction keeps the
// logs' history while the live edges alone would not back the largest id.
// So a graph whose high id was backed by edges since deleted reopens, both
// before and after a compaction, and the history goes once live edges
// back the id again.
func TestLiveReopensAfterMassDeletion(t *testing.T) {
	const high = 1 << 21
	dir := t.TempDir()
	l, err := Open(dir, Config{NumParts: 4})
	if err != nil {
		t.Fatal(err)
	}
	adds := []dynpart.Event{{Op: dynpart.Add, Edge: graph.Edge{U: 0, V: high}}}
	var dels []dynpart.Event
	for u := graph.Vertex(1); len(adds) <= high/256; u++ {
		e := graph.Edge{U: u, V: u + 1}
		adds = append(adds, dynpart.Event{Op: dynpart.Add, Edge: e})
		dels = append(dels, dynpart.Event{Op: dynpart.Remove, Edge: e})
	}
	if _, err := l.Apply(adds); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Apply(dels); err != nil {
		t.Fatal(err)
	}
	if l.State().numEdges != 1 {
		t.Fatalf("%d live edges, want 1", l.State().numEdges)
	}
	want := l.Checksum()
	reopen := func(stage string) {
		t.Helper()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if l, err = Open(dir, Config{}); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if got := l.Checksum(); got != want {
			t.Fatalf("%s: checksum %#x, want %#x", stage, got, want)
		}
		if err := l.State().CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	reopen("deleted")
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if l.logKeys != uint64(len(adds)+len(dels)) {
		t.Fatalf("compaction left %d logged keys, want the %d of the history", l.logKeys, len(adds)+len(dels))
	}
	reopen("compacted")

	if _, err := l.Apply(adds[1:]); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if l.logKeys != uint64(len(adds)) {
		t.Fatalf("compaction of backed edges left %d logged keys, want %d", l.logKeys, len(adds))
	}
	want = l.Checksum()
	reopen("re-added and compacted")
	l.Close()
}

// TestLiveChecksumInvariantToBatchAndCompaction: the live checksum is a
// pure function of the event stream — batch size, interleaved manual
// compactions, and rebalance budget slicing must not change it.
func TestLiveChecksumInvariantToBatchAndCompaction(t *testing.T) {
	g := gen.RMAT(9, 8, 5)
	base := arrivalStream(g, 11)
	// Salt in deletions and re-insertions.
	events := make([]dynpart.Event, 0, len(base)+len(base)/3)
	rng := rand.New(rand.NewSource(13))
	for i, ev := range base {
		events = append(events, ev)
		if i%3 == 0 {
			victim := base[rng.Intn(i+1)].Edge
			events = append(events, dynpart.Event{Op: dynpart.Remove, Edge: victim})
		}
	}

	run := func(batch int, compactEvery int) (uint64, uint64) {
		l, err := Open(t.TempDir(), Config{NumParts: 8, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		for i, n := 0, 0; i < len(events); i, n = i+batch, n+1 {
			if _, err := l.Apply(events[i:min(i+batch, len(events))]); err != nil {
				t.Fatal(err)
			}
			if compactEvery > 0 && n%compactEvery == compactEvery-1 {
				if err := l.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := l.State().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return l.Checksum(), stateChecksum(l.State())
	}

	sum1, st1 := run(500, 0)
	sum2, st2 := run(77, 3)
	sum3, st3 := run(len(events), 1)
	if sum1 != sum2 || sum1 != sum3 {
		t.Fatalf("live checksum depends on batching/compaction: %#x %#x %#x", sum1, sum2, sum3)
	}
	if st1 != st2 || st1 != st3 {
		t.Fatalf("state checksum depends on batching/compaction: %#x %#x %#x", st1, st2, st3)
	}
}

// TestLiveResume: closing mid-stream and reopening must resume to the exact
// same final state. Open rebuilds the placement state from the logs alone,
// and placement depends only on that state.
func TestLiveResume(t *testing.T) {
	g := gen.RMAT(9, 8, 9)
	events := arrivalStream(g, 3)
	for i := 0; i < len(events); i += 5 {
		events[i].Op = dynpart.Remove
		events[i].Edge = events[rand.New(rand.NewSource(int64(i))).Intn(i+1)].Edge
	}
	half := len(events) / 2

	oneShot := func() uint64 {
		l, err := Open(t.TempDir(), Config{NumParts: 4, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		applyAll(t, l, events, 311)
		return l.Checksum()
	}
	want := oneShot()

	dir := t.TempDir()
	l, err := Open(dir, Config{NumParts: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, l, events[:half], 311)
	midState := stateChecksum(l.State())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.State().cfg.NumParts != 4 {
		t.Fatalf("resume lost the partition count: %d", l.State().cfg.NumParts)
	}
	if got := stateChecksum(l.State()); got != midState {
		t.Fatalf("resumed state checksum %#x, want %#x", got, midState)
	}
	if err := l.State().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	applyAll(t, l, events[half:], 311)
	if got := l.Checksum(); got != want {
		t.Fatalf("resumed run checksum %#x, one-shot %#x", got, want)
	}
}

// TestLiveDirectoryIsStoreDirectory: a live directory's bases are a shard
// directory, which graph.ReadShardDir reads partition by partition as the
// live epoch holds them. After Create the directory holds the bases alone,
// for a graph never written opens no tail; after Compact then Close it
// holds the bases and empty tails.
func TestLiveDirectoryIsStoreDirectory(t *testing.T) {
	const parts = 4
	g := gen.RMAT(9, 8, 3)
	p := partition.New(parts, g.NumEdges())
	for i := range p.Owner {
		p.Owner[i] = int32(i * 7 % parts)
	}
	check := func(dir string, ep *store.Epoch, files int) {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != files {
			t.Fatalf("%d files, want %d", len(ents), files)
		}
		for q := 0; q < parts; q++ {
			for _, kind := range []string{tailAdd, tailDead} {
				if _, err := os.Stat(runPath(dir, kind, q, parts)); err != nil {
					continue
				}
				if keys := readKeys(t, runPath(dir, kind, q, parts)); len(keys) != 0 {
					t.Fatalf("partition %d's %s tail holds %d edges, want none", q, kind, len(keys))
				}
			}
			sh, err := graph.ReadShardDir(dir, func(index, _ uint32) bool { return int(index) == q })
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sh.Packed, ep.ShardEdgesPacked(q)) {
				t.Fatalf("graph.ReadShardDir partition %d differs from the live partition", q)
			}
		}
	}

	dir := t.TempDir()
	l, err := Create(dir, Config{Seed: 3}, g, p)
	if err != nil {
		t.Fatal(err)
	}
	ep := l.Epoch()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	check(dir, ep, parts)
	if l, err = Open(dir, Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Apply(dynpart.Churn(g, 3000, 0.3, 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	ep = l.Epoch()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	check(dir, ep, 3*parts)
}

// TestConfigValidation: partition counts outside (0, maxParts] are refused
// by NewState and Open; Create refuses a seed partitioning that does not
// cover its graph, a partition count that disagrees with it, and a
// directory that already holds a live graph.
func TestConfigValidation(t *testing.T) {
	for _, parts := range []int{-1, 0, maxParts + 1} {
		if _, err := NewState(Config{NumParts: parts}); err == nil {
			t.Errorf("NewState accepted %d partitions", parts)
		}
		if _, err := Open(t.TempDir(), Config{NumParts: parts}); err == nil {
			t.Errorf("Open accepted %d partitions", parts)
		}
	}
	g := gen.ER(50, 120, 1)
	p := partition.New(4, g.NumEdges())
	for i := range p.Owner {
		p.Owner[i] = int32(i % 4)
	}
	if _, err := Create(t.TempDir(), Config{}, g, partition.New(4, g.NumEdges())); err == nil {
		t.Error("Create accepted a partitioning with unassigned edges")
	}
	if _, err := Create(t.TempDir(), Config{NumParts: 3}, g, p); err == nil {
		t.Error("Create accepted 3 partitions for a 4-way seed")
	}
	dir := t.TempDir()
	l, err := Create(dir, Config{}, g, p)
	if err != nil {
		t.Fatal(err)
	}
	if l.State().cfg.NumParts != 4 || l.State().numEdges != g.NumEdges() {
		t.Fatalf("seeded %d partitions, %d edges; want 4, %d", l.State().cfg.NumParts, l.State().numEdges, g.NumEdges())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, Config{}, g, p); err == nil {
		t.Error("Create overwrote an existing live graph")
	}
}

// TestOpenRejectsPartitionCountMismatch: the logs carry the partition
// count, and a config asking for fewer or more partitions is refused
// instead of replaying a subset of the logs or reshaping the graph. The
// matching count still resumes the graph.
func TestOpenRejectsPartitionCountMismatch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Config{NumParts: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, l, arrivalStream(gen.ER(300, 1000, 2), 1), 250)
	want := l.Checksum()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{4, 12} {
		if _, err := Open(dir, Config{NumParts: parts}); err == nil ||
			!strings.Contains(err.Error(), "holds 8 partitions, config asks") {
			t.Fatalf("Open with %d partitions over 8 logs: err %v", parts, err)
		}
	}
	l, err = Open(dir, Config{NumParts: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.Checksum(); got != want {
		t.Fatalf("resumed checksum %#x, want %#x", got, want)
	}
}

// TestLiveRecoversTruncatedFooter: a log torn inside its footer (the
// SIGKILL-during-Close shape) holds every chunk intact; reopen must reseal
// it and resume with nothing lost.
func TestLiveRecoversTruncatedFooter(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Config{NumParts: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, l, arrivalStream(gen.ER(100, 400, 2), 1), 100)
	want := l.Checksum()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := runPath(dir, tailAdd, 0, 2)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b = b[:len(b)-5] // truncate into the footer
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Config{})
	if err != nil {
		t.Fatalf("torn footer must recover, got: %v", err)
	}
	defer l.Close()
	if rec := l.Recovery(); rec.TornLogs != 1 || rec.DroppedBytes == 0 {
		t.Fatalf("recovery report %+v, want 1 torn log with dropped bytes", rec)
	}
	if got := l.Checksum(); got != want {
		t.Fatalf("recovered checksum %#x != pre-crash %#x (no chunk was lost)", got, want)
	}
	if err := l.State().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveRecoversTornChunk: a SIGKILL mid-append tears a log inside a
// chunk, losing edges. Reopen must truncate to the last valid chunk and
// rebuild from replay — fewer edges, but a consistent graph.
func TestLiveRecoversTornChunk(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Config{NumParts: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, l, arrivalStream(gen.ER(100, 400, 2), 1), 100)
	before := l.Stats().NumEdges
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := runPath(dir, tailAdd, 0, 2)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b = b[:len(b)-25] // through footer+terminator into the last chunk's payload
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Config{})
	if err != nil {
		t.Fatalf("torn chunk must recover, got: %v", err)
	}
	defer l.Close()
	rec := l.Recovery()
	if rec.TornLogs != 1 {
		t.Fatalf("recovery report %+v, want 1 torn log", rec)
	}
	after := l.Stats().NumEdges
	if after >= before || after == 0 {
		t.Fatalf("replayed %d edges after losing a tail from %d", after, before)
	}
	if err := l.State().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The recovered graph must keep working: it accepts new edges.
	if _, err := l.Apply([]dynpart.Event{{Op: dynpart.Add, Edge: graph.Edge{U: 900, V: 901}}}); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().NumEdges; got != after+1 {
		t.Fatalf("post-recovery apply: %d edges, want %d", got, after+1)
	}
}

// TestLiveRejectsUnrecoverableLog: a log whose header is destroyed has no
// valid prefix to salvage; Open must refuse rather than guess.
func TestLiveRejectsUnrecoverableLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Config{NumParts: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, l, arrivalStream(gen.ER(100, 400, 2), 1), 100)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := runPath(dir, tailAdd, 0, 2)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff // destroy the magic
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Config{}); err == nil {
		t.Fatal("opened a directory with an unrecoverable log")
	}
}

// TestLiveRebalance: deletions skew the load; a bounded rebalance must
// migrate edges off the overloaded partition, stay within budget, account
// migration bytes, and leave a consistent, still-correct graph.
func TestLiveRebalance(t *testing.T) {
	g := gen.ER(400, 6000, 4)
	l, err := Open(t.TempDir(), Config{NumParts: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	applyAll(t, l, arrivalStream(g, 4), 1000)

	// Delete most edges everywhere except partition 0.
	ep := l.Epoch()
	var dels []dynpart.Event
	for q := 1; q < 4; q++ {
		for i, k := range ep.ShardEdgesPacked(q) {
			if i%10 != 0 {
				dels = append(dels, dynpart.Event{Op: dynpart.Remove, Edge: graph.UnpackEdge(k)})
			}
		}
	}
	applyAll(t, l, dels, 1000)
	sizes := l.State().Sizes()
	cap := l.State().capEdges(0)
	if sizes[0] <= cap {
		t.Skipf("partition 0 not overloaded (%v, cap %d); skew assumption broken", sizes, cap)
	}

	const budget = 200
	moved, err := l.Rebalance(budget)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 || moved > budget {
		t.Fatalf("moved %d edges, want in (0,%d]", moved, budget)
	}
	if l.State().moved != int64(moved) {
		t.Fatalf("state counts %d moves, rebalance reported %d", l.State().moved, moved)
	}
	if l.State().migratedBytes != int64(moved)*16 {
		t.Fatalf("migrated bytes %d, want %d", l.State().migratedBytes, moved*16)
	}
	if err := l.State().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The edge set is preserved — only owners changed.
	var total int64
	ep = l.Epoch()
	for q := 0; q < 4; q++ {
		total += int64(len(ep.ShardEdgesPacked(q)))
	}
	if total != l.State().numEdges {
		t.Fatalf("epoch holds %d edges, state %d", total, l.State().numEdges)
	}
	// Deterministic: the same history replays to the same checksum.
	sum := l.Checksum()
	l2, err := Open(t.TempDir(), Config{NumParts: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	applyAll(t, l2, arrivalStream(g, 4), 1000)
	applyAll(t, l2, dels, 1000)
	if _, err := l2.Rebalance(budget); err != nil {
		t.Fatal(err)
	}
	if got := l2.Checksum(); got != sum {
		t.Fatalf("rebalance not deterministic: %#x vs %#x", got, sum)
	}
}

// TestLiveConcurrentReadersNeverError: queries pin epochs while a writer
// ingests, compacts and rebalances concurrently. Run under -race this is
// the "readers never block, never tear" check.
func TestLiveConcurrentReadersNeverError(t *testing.T) {
	g := gen.RMAT(10, 8, 6)
	l, err := Open(t.TempDir(), Config{NumParts: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	events := arrivalStream(g, 6)
	// Seed a prefix so readers have something from the start.
	applyAll(t, l, events[:len(events)/4], 4096)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ep := l.Epoch()
				v := graph.Vertex(rng.Intn(int(ep.NumVertices())))
				if _, err := ep.KHop(context.Background(), v, 2); err != nil {
					t.Errorf("khop: %v", err)
					return
				}
				if _, err := ep.Neighbors(v); err != nil {
					t.Errorf("neighbors: %v", err)
					return
				}
			}
		}(r)
	}
	for i := len(events) / 4; i < len(events); i += 2048 {
		if _, err := l.Apply(events[i:min(i+2048, len(events))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rebalance(500); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}

// TestPinnedEpochsSurviveIngest: an epoch a reader pins keeps answering
// exactly the graph as of its publish while later batches, a rebalance and
// compactions publish newer ones. A seeded churn with deletions and
// re-insertions runs in batches; one batch deletes most edges off three of
// the four partitions, and a Rebalance then moves edges; every seventh
// batch ends with a Compact, so most pins hold an overlay, and several an
// overlay of two runs that name the same edges. The epoch after each step
// is pinned beside a snapshot of a map model of the edge set. A reader
// checks each pin while the writer goes on, and after the last batch every
// pin is checked again: the union of its ShardEdgesPacked, the Neighbors of
// sampled vertices and one two-hop KHop must equal the model as of that
// pin.
func TestPinnedEpochsSurviveIngest(t *testing.T) {
	const parts, batch = 4, 200
	g := gen.RMAT(8, 8, 21)
	events := dynpart.Churn(g, 5000, 0.35, 9)
	l, err := Open(t.TempDir(), Config{NumParts: parts, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type pin struct {
		ep   *store.Epoch
		keys []uint64 // the model's live edges as of ep, ascending
	}
	alive := map[uint64]bool{}
	apply := func(evs []dynpart.Event) {
		t.Helper()
		if _, err := l.Apply(evs); err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			c := ev.Edge.Canon()
			if ev.Op == dynpart.Add && c.U != c.V {
				alive[graph.PackEdge(c.U, c.V)] = true
			} else if ev.Op == dynpart.Remove {
				delete(alive, graph.PackEdge(c.U, c.V))
			}
		}
	}
	pins := make(chan pin, len(events)/batch+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := range pins {
			checkPinned(t, p.ep, p.keys)
		}
	}()
	var pinned []pin
	moved := 0
	for i, n := 0, 0; i < len(events); i, n = i+batch, n+1 {
		apply(events[i:min(i+batch, len(events))])
		if n == 6 {
			var dels []dynpart.Event
			ep := l.Epoch()
			for q := 1; q < parts; q++ {
				for j, k := range ep.ShardEdgesPacked(q) {
					if j%8 != 0 {
						dels = append(dels, dynpart.Event{Op: dynpart.Remove, Edge: graph.UnpackEdge(k)})
					}
				}
			}
			apply(dels)
			if moved, err = l.Rebalance(100); err != nil {
				t.Fatal(err)
			}
		}
		if n%7 == 6 {
			if err := l.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		keys := make([]uint64, 0, len(alive))
		for k := range alive {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		p := pin{l.Epoch(), keys}
		pinned = append(pinned, p)
		pins <- p
	}
	close(pins)
	wg.Wait()
	if moved == 0 {
		t.Fatal("the rebalance moved no edge")
	}
	for _, p := range pinned {
		checkPinned(t, p.ep, p.keys)
	}
}

// checkPinned requires ep to hold exactly the edges keys (ascending): as the
// union of its shards, each edge on one shard, in the Neighbors of a seeded
// sample of vertices, and in a two-hop KHop from one of them.
func checkPinned(t *testing.T, ep *store.Epoch, keys []uint64) {
	t.Helper()
	var union []uint64
	for s := 0; s < ep.NumShards(); s++ {
		ks := ep.ShardEdgesPacked(s)
		if int64(len(ks)) != ep.ShardEdges(s) {
			t.Errorf("epoch %d shard %d lists %d edges, counts %d", ep.Seq(), s, len(ks), ep.ShardEdges(s))
		}
		union = append(union, ks...)
	}
	slices.Sort(union)
	if !slices.Equal(union, keys) {
		t.Errorf("epoch %d holds %d edges, the model %d, or other ones", ep.Seq(), len(union), len(keys))
		return
	}
	g := graph.FromPacked(ep.NumVertices(), slices.Clone(keys))
	rng := rand.New(rand.NewSource(int64(ep.Seq())))
	for i := 0; i < 24; i++ {
		v := graph.Vertex(rng.Intn(int(ep.NumVertices())))
		if ns, err := ep.Neighbors(v); err != nil || !slices.Equal(ns, g.Neighbors(v)) {
			t.Errorf("epoch %d: Neighbors(%d) = %v, %v; model %v", ep.Seq(), v, ns, err, g.Neighbors(v))
		}
	}
	src := graph.Vertex(rng.Intn(int(ep.NumVertices())))
	res, err := ep.KHop(context.Background(), src, 2)
	if err != nil {
		t.Errorf("epoch %d: KHop(%d, 2): %v", ep.Seq(), src, err)
		return
	}
	if want := bfsOrder(g, src, 2); !slices.Equal(res.Vertices, want) {
		t.Errorf("epoch %d: KHop(%d, 2) reaches %d vertices, the model %d", ep.Seq(), src, len(res.Vertices), len(want))
	}
}

// bfsOrder lists the vertices within k hops of src in g, by depth and then
// by id, as KHop orders them.
func bfsOrder(g *graph.Graph, src graph.Vertex, k int) []graph.Vertex {
	seen := map[graph.Vertex]bool{src: true}
	out, level := []graph.Vertex{src}, []graph.Vertex{src}
	for d := 0; d < k && len(level) > 0; d++ {
		var next []graph.Vertex
		for _, u := range level {
			for _, w := range g.Neighbors(u) {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
				}
			}
		}
		slices.Sort(next)
		out = append(out, next...)
		level = next
	}
	return out
}

// BenchmarkLiveApply times the writer of the live-mixed workload without its
// reader: RMAT 15 at edge factor 16, 550 000 churn events with 20 % deletes,
// P = 8, Apply batches of 4 096 into a fresh directory with auto-compaction.
// ns/event is the per-event writer cost; B/op is the allocation of one
// whole stream.
func BenchmarkLiveApply(b *testing.B) {
	const batch = 4096
	events := dynpart.Churn(gen.RMAT(15, 16, 42), 550_000, 0.2, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Open(b.TempDir(), Config{NumParts: 8, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < len(events); j += batch {
			if _, err := l.Apply(events[j:min(j+batch, len(events))]); err != nil {
				b.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}
