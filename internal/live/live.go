package live

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/distributedne/dne/internal/binio"
	"github.com/distributedne/dne/internal/dynpart"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/obs"
	"github.com/distributedne/dne/internal/partition"
	"github.com/distributedne/dne/internal/store"
)

// logNumVertices is the vertex bound declared by the per-partition logs:
// the live vertex universe grows with the stream, so logs are unbounded.
const logNumVertices = ^uint32(0)

// defaultMinOverlay is the smallest auto-compaction threshold: the overlay
// may always grow to this many mutations before a compaction triggers.
const defaultMinOverlay = 1 << 16

// Live is the dynamic-graph subsystem rooted in one directory, which holds
// two append-only EShard logs per partition and nothing else:
//
//	part-NNNN.esh   insertion log
//	dead-NNNN.esh   tombstone log
//
// Mutations (Apply, Rebalance, Compact) serialize on one mutex; queries
// never take it — they pin the current Epoch with one atomic load and run
// against that immutable snapshot, so readers never block and never
// observe a partial batch.
type Live struct {
	dir string

	mu      sync.Mutex
	st      *State
	base    *store.Store
	pending *store.Delta // writer-side overlay vs base (shares maps with view)
	view    *store.Epoch // writer-side view (base, pending); mu-guarded
	adds    []*graph.ShardWriter
	dead    []*graph.ShardWriter
	seq     uint64
	ncomp   int64  // compactions performed
	logKeys uint64 // edge keys the logs hold, insertions and tombstones
	closed  bool

	epoch       atomic.Pointer[store.Epoch] // published snapshot; readers load and go
	lastPublish atomic.Int64                // UnixNano of the last published epoch

	recovery Recovery // what Open had to repair; immutable afterwards

	// Maintenance duration histograms, attached by RegisterMetrics; nil
	// (the default) records nothing.
	obsApply     *obs.Histogram
	obsCompact   *obs.Histogram
	obsRebalance *obs.Histogram
}

// MaxOverlay returns the overlay mutation count that triggers an automatic
// compaction at the end of an Apply batch: an eighth of the base (so
// compaction work amortizes geometrically), floored at defaultMinOverlay.
func (l *Live) maxOverlay() int64 {
	return max(defaultMinOverlay, l.base.NumEdges()/8)
}

// Open opens (or creates) a live graph in dir and rebuilds its placement
// state from the logs, the one durable copy of the graph. The insertion
// logs carry the partition count: cfg.NumParts must match it, and zero
// adopts it. Every log must declare its own partition and that count in
// its header. The logged edge keys, insertions and tombstones alike, must
// back the largest live vertex id (graph.VertexClaimOK): Apply and Compact
// keep every directory they write that way, and Open refuses any other
// with ErrVertexClaim before sizing the slabs for it.
func Open(dir string, cfg Config) (*Live, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n, err := settleLogs(dir)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		if cfg.NumParts != 0 && cfg.NumParts != n {
			return nil, fmt.Errorf("live: log directory holds %d partitions, config asks %d", n, cfg.NumParts)
		}
		cfg.NumParts = n
	}
	st, err := NewState(cfg)
	if err != nil {
		return nil, err
	}
	numParts := st.cfg.NumParts

	// Replay the logs: per partition, live edges are insertions minus
	// tombstones (counts alternate 1/0 per edge — an edge is tombstoned
	// only while live, re-inserted only while dead).
	var rec Recovery
	packed := make([][]uint64, numParts)
	var maxV graph.Vertex
	var logKeys uint64
	for q := 0; q < numParts; q++ {
		counts := make(map[uint64]int64)
		if err := replayLog(dir, "part", q, numParts, &rec, func(k uint64) { counts[k]++; logKeys++ }); err != nil {
			return nil, err
		}
		if err := replayLog(dir, "dead", q, numParts, &rec, func(k uint64) { counts[k]--; logKeys++ }); err != nil {
			return nil, err
		}
		for k, c := range counts {
			if c == 1 {
				packed[q] = append(packed[q], k)
				maxV = max(maxV, graph.UnpackEdge(k).V+1)
			} else if c != 0 {
				return nil, fmt.Errorf("live: partition %d log count %d for edge %#x (want 0 or 1)", q, c, k)
			}
		}
		slices.Sort(packed[q])
	}
	if !graph.VertexClaimOK(uint64(maxV), logKeys) {
		return nil, fmt.Errorf("%w: logs name vertex %d with %d logged edges", ErrVertexClaim, maxV-1, logKeys)
	}
	for q, ks := range packed {
		for _, k := range ks {
			e := graph.UnpackEdge(k)
			st.grow(e.V)
			st.addIncidence(e.U, int32(q))
			st.addIncidence(e.V, int32(q))
			st.sizes[q]++
			st.numEdges++
		}
	}
	maxV = max(maxV, graph.Vertex(len(st.deg)), 1) // BuildFromShards wants a nonempty universe

	base, err := store.BuildFromShards(uint32(maxV), packed)
	if err != nil {
		return nil, err
	}
	l := &Live{
		dir:      dir,
		st:       st,
		base:     base,
		pending:  store.NewDelta(numParts),
		logKeys:  logKeys,
		recovery: rec,
	}
	l.view = store.NewEpoch(base, l.pending, 0)
	if err := l.openLogs(); err != nil {
		return nil, err
	}
	l.publishLocked()
	return l, nil
}

// Create seeds a new live graph in dir from a static partitioning p of g:
// the §8 workflow of partitioning a snapshot offline, typically with
// Distributed NE, then maintaining it incrementally. Each partition's edges
// become its insertion log and Open rebuilds the placement state from
// them. Zero cfg.NumParts adopts p's count; dir must not already hold a
// live graph.
func Create(dir string, cfg Config, g *graph.Graph, p *partition.Partitioning) (*Live, error) {
	if err := p.Validate(g); err != nil {
		return nil, fmt.Errorf("live: seed partitioning invalid: %w", err)
	}
	if cfg.NumParts == 0 {
		cfg.NumParts = p.NumParts
	}
	if cfg.NumParts != p.NumParts {
		return nil, fmt.Errorf("live: seed partitioning has %d partitions, config asks %d", p.NumParts, cfg.NumParts)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	for _, name := range []string{"part-0000.esh", "dead-0000.esh"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return nil, fmt.Errorf("live: %s already holds a live graph (%s)", dir, name)
		} else if !os.IsNotExist(err) {
			return nil, err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// g's canonical edges are sorted, so each partition's keys are too.
	packed := make([][]uint64, cfg.NumParts)
	for i, e := range g.Edges() {
		q := p.Owner[i]
		packed[q] = append(packed[q], graph.PackEdge(e.U, e.V))
	}
	// part-0000.esh goes last, as in openLogs: until it exists, a crashed
	// Create can rerun.
	for q := cfg.NumParts - 1; q >= 0; q-- {
		if err := writeLogFile(logPath(dir, "part", q), q, cfg.NumParts, packed[q]); err != nil {
			return nil, err
		}
	}
	return Open(dir, cfg)
}

func logPath(dir, kind string, q int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%04d.esh", kind, q))
}

// logName matches a log file of a live directory.
var logName = regexp.MustCompile(`^(part|dead)-(\d{4})\.esh$`)

// nextSuffix marks the compacted insertion log a compaction writes beside
// the old one; see rewriteLogs.
const nextSuffix = ".next"

// settleLogs finishes what a crash left half done in dir and returns its
// partition count: the number of insertion logs, which must run from
// part-0000.esh with no gap and no tombstone log past the last. Temp files
// of interrupted writes are deleted, and each partition's compaction is
// completed or discarded by rewriteLogs's commit rule. part-0000.esh is
// written last (see openLogs), so logs without it never formed a whole
// directory; when none of them holds an edge, they are what a crash leaves
// while Open writes a fresh directory's empty logs, and they are deleted.
func settleLogs(dir string) (int, error) {
	tmps, err := filepath.Glob(filepath.Join(dir, "*.esh*.tmp"))
	if err != nil {
		return 0, err
	}
	for _, tmp := range tmps {
		if err := os.Remove(tmp); err != nil {
			return 0, err
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var logs []string
	var parts, deads []int // ascending: ReadDir sorts by name
	for _, e := range ents {
		if m := logName.FindStringSubmatch(e.Name()); m != nil {
			logs = append(logs, filepath.Join(dir, e.Name()))
			q, _ := strconv.Atoi(m[2])
			if m[1] == "part" {
				parts = append(parts, q)
			} else {
				deads = append(deads, q)
			}
		}
	}
	if len(parts) == 0 || parts[0] != 0 {
		if slices.ContainsFunc(logs, holdsEdges) {
			return 0, fmt.Errorf("live: %s has no insertion log for partition 0", dir)
		}
		for _, path := range logs {
			if err := os.Remove(path); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	n := len(parts)
	for i, q := range parts {
		if q != i {
			return 0, fmt.Errorf("live: %s has no insertion log for partition %d", dir, i)
		}
	}
	if k := len(deads); k > 0 && deads[k-1] >= n {
		return 0, fmt.Errorf("live: %s holds a tombstone log for partition %d past its %d insertion logs", dir, deads[k-1], n)
	}
	for q := 0; q < n; q++ {
		part := logPath(dir, "part", q)
		if _, err := os.Stat(part + nextSuffix); os.IsNotExist(err) {
			continue
		} else if err != nil {
			return 0, err
		}
		if slices.Contains(deads, q) {
			err = os.Remove(part + nextSuffix)
		} else {
			err = os.Rename(part+nextSuffix, part)
		}
		if err != nil {
			return 0, err
		}
	}
	return n, nil
}

// holdsEdges reports whether the log at path may hold an edge: it does, or
// it does not read as a log.
func holdsEdges(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return true
	}
	defer f.Close()
	sr, err := graph.NewShardReader(f)
	if err != nil {
		return true
	}
	_, err = sr.Next()
	return err != io.EOF
}

// replayLog checks that the kind log of partition q declares itself log q
// of numParts, truncates a torn tail (a crash mid-append leaves one; the
// un-fsynced appends it held were never durable), and streams every packed
// edge into fn. A missing file is an empty log.
func replayLog(dir, kind string, q, numParts int, rec *Recovery, fn func(k uint64)) error {
	path := logPath(dir, kind, q)
	_, dropped, err := graph.RecoverShardTail(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("live: recovering %s: %w", path, err)
	}
	if dropped > 0 {
		rec.TornLogs++
		rec.DroppedBytes += dropped
		liveObs.tornLogs.Add(1)
		liveObs.tornBytes.Add(dropped)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sr, err := graph.NewShardReader(f)
	if err != nil {
		return fmt.Errorf("live: %s: %w", path, err)
	}
	if info := sr.Info(); info.Index != uint32(q) || info.Count != uint32(numParts) {
		return fmt.Errorf("live: %s declares log %d of %d, want %d of %d", path, info.Index, info.Count, q, numParts)
	}
	for {
		chunk, err := sr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("live: %s: %w", path, err)
		}
		for _, k := range chunk {
			fn(k)
		}
	}
}

// openLogs opens every log for appending. A missing log is first written
// whole and empty, so a crash never leaves a log without its header, and
// in descending order with the tombstone logs first, so part-0000.esh
// comes last and marks a whole directory (see settleLogs).
func (l *Live) openLogs() error {
	numParts := l.st.cfg.NumParts
	l.adds, l.dead = make([]*graph.ShardWriter, numParts), make([]*graph.ShardWriter, numParts)
	for _, kind := range []string{"dead", "part"} {
		for q := numParts - 1; q >= 0; q-- {
			path := logPath(l.dir, kind, q)
			sw, err := graph.OpenShardAppend(path)
			if os.IsNotExist(err) {
				if err = writeLogFile(path, q, numParts, nil); err == nil {
					sw, err = graph.OpenShardAppend(path)
				}
			}
			if err != nil {
				l.closeLogs()
				return fmt.Errorf("live: opening %s: %w", path, err)
			}
			if kind == "part" {
				l.adds[q] = sw
			} else {
				l.dead[q] = sw
			}
		}
	}
	return nil
}

// closeLogs seals every open log and returns the first error.
func (l *Live) closeLogs() error {
	var first error
	for _, ws := range [2][]*graph.ShardWriter{l.adds, l.dead} {
		for _, w := range ws {
			if w == nil {
				continue
			}
			if err := w.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// publishLocked freezes the pending overlay into the next epoch. Callers
// hold mu.
func (l *Live) publishLocked() {
	l.seq++
	var frozen *store.Delta
	if l.pending.AddedEdges() != 0 || l.pending.DeletedEdges() != 0 {
		frozen = l.pending.Clone()
	}
	l.epoch.Store(store.NewEpoch(l.base, frozen, l.seq))
	l.lastPublish.Store(time.Now().UnixNano())
}

// Epoch returns the current published snapshot. Queries run entirely
// against it — the pointer is immutable, so a long traversal keeps its
// epoch while writers publish new ones.
func (l *Live) Epoch() *store.Epoch { return l.epoch.Load() }

// State returns the placement state for inspection. Mutating it outside
// the Live methods corrupts the subsystem.
func (l *Live) State() *State { return l.st }

// ownerLocked resolves the partition holding live edge (u,v), −1 when the
// edge is absent. The scan runs from the lower-degree endpoint, so lookup
// cost is O(P + min-degree), not hub-degree.
func (l *Live) ownerLocked(u, v graph.Vertex) int32 {
	a, b := u, v
	if l.st.Degree(b) < l.st.Degree(a) {
		a, b = b, a
	}
	if l.st.Degree(a) == 0 {
		return -1
	}
	owner := int32(-1)
	l.st.EachReplica(a, func(q int) {
		if owner < 0 && l.view.ShardHasEdge(q, a, b) {
			owner = int32(q)
		}
	})
	return owner
}

// Apply ingests a batch of events in order and returns how many changed
// state (duplicate insertions, self loops and deletions of absent edges
// don't count). One epoch is published per batch, so batching amortizes
// the overlay freeze; when the overlay outgrows maxOverlay the batch ends
// with an automatic compaction. A batch with an unknown op, or with vertex
// ids its edges cannot pay for (ErrVertexClaim), is rejected whole before
// anything is logged or placed.
func (l *Live) Apply(events []dynpart.Event) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("live: closed")
	}
	if err := l.checkBatch(events); err != nil {
		return 0, err
	}
	start := time.Now()
	defer func() { l.obsApply.Observe(int64(time.Since(start))) }()
	changed := 0
	for _, ev := range events {
		c := ev.Edge.Canon()
		switch ev.Op {
		case dynpart.Add:
			if c.U == c.V {
				continue
			}
			if l.ownerLocked(c.U, c.V) >= 0 {
				continue
			}
			q := l.st.Place(c.U, c.V)
			k := graph.PackEdge(c.U, c.V)
			if err := l.adds[q].AppendPacked(k); err != nil {
				return changed, err
			}
			l.logKeys++
			l.st.ApplyInsert(c.U, c.V, q)
			l.pending.AddEdge(int(q), c.U, c.V)
			changed++
		case dynpart.Remove:
			q := l.ownerLocked(c.U, c.V)
			if q < 0 {
				continue
			}
			k := graph.PackEdge(c.U, c.V)
			if err := l.dead[q].AppendPacked(k); err != nil {
				return changed, err
			}
			l.logKeys++
			l.st.ApplyDelete(c.U, c.V, q)
			if !l.pending.RemoveAdd(int(q), c.U, c.V) {
				l.pending.DelEdge(int(q), c.U, c.V)
			}
			changed++
		}
	}
	added, deleted := l.pending.AddedEdges(), l.pending.DeletedEdges()
	if added+deleted > l.maxOverlay() {
		if err := l.compactLocked(); err != nil {
			return changed, err
		}
	} else {
		l.publishLocked()
	}
	return changed, nil
}

// checkBatch validates a batch before any of it is applied: every op must be
// known, and its insertions may name vertex ids only as far as the claim
// rule graph applies to untrusted headers allows (graph.VertexClaimOK),
// counted against the keys the logs will hold after the batch. That is the
// bound Open applies, so a directory Apply wrote always reopens; and one
// edge with an endpoint near 2³² cannot command a multi-GiB |V|×P slab.
// The batch's own edges count only when the logs alone fall short, and
// then only the distinct ones not yet live, each of which logs at least one
// insertion.
func (l *Live) checkBatch(events []dynpart.Event) error {
	var need uint64 // vertex ids the batch's insertions name
	for _, ev := range events {
		switch ev.Op {
		case dynpart.Add:
			if ev.Edge.U != ev.Edge.V {
				need = max(need, uint64(ev.Edge.U)+1, uint64(ev.Edge.V)+1)
			}
		case dynpart.Remove:
		default:
			return fmt.Errorf("live: unknown op %d", ev.Op)
		}
	}
	if graph.VertexClaimOK(need, l.logKeys) {
		return nil
	}
	fresh := make(map[uint64]struct{})
	for _, ev := range events {
		if c := ev.Edge.Canon(); ev.Op == dynpart.Add && c.U != c.V && l.ownerLocked(c.U, c.V) < 0 {
			fresh[graph.PackEdge(c.U, c.V)] = struct{}{}
		}
	}
	if keys := l.logKeys + uint64(len(fresh)); !graph.VertexClaimOK(need, keys) {
		return fmt.Errorf("%w: endpoint %d would size state for %d vertices on %d logged edges",
			ErrVertexClaim, need-1, need, keys)
	}
	return nil
}

// Rebalance migrates up to budget edges from partitions above the α cap to
// strictly less-loaded destinations, preferring moves that do not add
// replicas. Migrations are ordinary overlay mutations — a tombstone on the
// source, an insertion on the target — published as one epoch, so readers
// see each move atomically. The pass is deterministic (partitions in id
// order, edges in canonical order). Returns the number of edges moved.
func (l *Live) Rebalance(budget int) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("live: closed")
	}
	start := time.Now()
	defer func() { l.obsRebalance.Observe(int64(time.Since(start))) }()
	cap := l.st.capEdges(0)
	moved := 0
	sizes := l.st.sizes
	for q := int32(0); int(q) < l.st.cfg.NumParts && moved < budget; q++ {
		if sizes[q] <= cap {
			continue
		}
		for _, k := range l.view.ShardEdgesPacked(int(q)) {
			if sizes[q] <= cap || moved >= budget {
				break
			}
			e := graph.UnpackEdge(k)
			t := l.st.BestTarget(e.U, e.V, q)
			if t < 0 {
				continue
			}
			if err := l.dead[q].AppendPacked(k); err != nil {
				return moved, err
			}
			if err := l.adds[t].AppendPacked(k); err != nil {
				return moved, err
			}
			l.logKeys += 2
			l.st.ApplyMove(e.U, e.V, q, t)
			if !l.pending.RemoveAdd(int(q), e.U, e.V) {
				l.pending.DelEdge(int(q), e.U, e.V)
			}
			l.pending.AddEdge(int(t), e.U, e.V)
			moved++
		}
	}
	if moved > 0 {
		l.publishLocked()
	}
	return moved, nil
}

// Compact folds the overlay into a fresh base store, rewrites the
// per-partition logs to exactly the live edge set (unless those edges
// would no longer back the largest vertex id; see compactLocked), and
// publishes the compacted epoch. Readers keep serving from their pinned
// epochs throughout; only writers wait.
func (l *Live) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("live: closed")
	}
	return l.compactLocked()
}

func (l *Live) compactLocked() error {
	start := time.Now()
	defer func() { l.obsCompact.Observe(int64(time.Since(start))) }()
	numParts := l.st.cfg.NumParts
	packed := make([][]uint64, numParts)
	// The writer view's vertex bound is stale (fixed at its creation); the
	// state slabs cover every live endpoint.
	for q := range packed {
		packed[q] = l.view.ShardEdgesPacked(q)
	}
	base, err := store.BuildFromShards(max(l.base.NumVertices(), uint32(len(l.st.deg)), 1), packed)
	if err != nil {
		return err
	}

	// Rewrite the logs to the live edge set, one partition at a time, so a
	// crash mid-compaction leaves every partition on one whole generation.
	// The rewrite drops the logs' history, which Open counts toward the
	// vertex claim, so it waits while the live edges alone would not back
	// the largest live vertex id.
	top := len(l.st.deg) // one past the largest live vertex id
	for top > 0 && l.st.deg[top-1] == 0 {
		top--
	}
	if graph.VertexClaimOK(uint64(top), uint64(l.st.numEdges)) {
		if err := l.closeLogs(); err != nil {
			return err
		}
		for q := range packed {
			if err := rewriteLogs(l.dir, q, numParts, packed[q]); err != nil {
				return err
			}
		}
		// The last rename must be durable before fresh tombstone logs are.
		if err := syncDir(l.dir); err != nil {
			return err
		}
		if err := l.openLogs(); err != nil {
			return err
		}
		l.logKeys = uint64(l.st.numEdges)
	}

	l.base = base
	l.pending = store.NewDelta(numParts)
	l.view = store.NewEpoch(base, l.pending, 0)
	l.ncomp++
	l.publishLocked()
	return nil
}

// rewriteLogs replaces partition q's insertion and tombstone logs with one
// insertion log holding packed, its live edges. The new log is written as
// part-q.esh.next, the tombstone log is removed, and the new log is renamed
// over the old. Removing the tombstone log is the commit point: settleLogs
// discards a .next while dead-q.esh exists and finishes the rename once it
// is gone. The directory is fsynced between the steps, so a power cut
// cannot reorder them either. A crash at any step thus replays one whole
// generation, never the new insertions against the old tombstones.
func rewriteLogs(dir string, q, numParts int, packed []uint64) error {
	part := logPath(dir, "part", q)
	if err := writeLogFile(part+nextSuffix, q, numParts, packed); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	if err := os.Remove(logPath(dir, "dead", q)); err != nil && !os.IsNotExist(err) {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	return os.Rename(part+nextSuffix, part)
}

// syncDir makes the renames and removals in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeLogFile atomically replaces path with a fresh log holding packed.
func writeLogFile(path string, q, numParts int, packed []uint64) error {
	_, err := binio.Replace(path, func(w io.Writer) error {
		sw, err := graph.NewShardWriter(w, graph.ShardInfo{
			NumVertices: logNumVertices, Index: uint32(q), Count: uint32(numParts),
		})
		if err != nil {
			return err
		}
		for _, k := range packed {
			if err := sw.AppendPacked(k); err != nil {
				return err
			}
		}
		return sw.Close()
	})
	return err
}

// Close seals the logs (footer rewrite). The last published epoch keeps
// serving pinned readers.
func (l *Live) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.closeLogs()
}

// Checksum digests the full live graph — every partition's sorted live
// edge list, owner included — the bit-identity currency for seeded ingest
// runs (the dnepart -checksum analogue for dynamic streams).
func (l *Live) Checksum() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := fnv.New64a()
	var b [12]byte
	for q := 0; q < l.st.cfg.NumParts; q++ {
		for _, k := range l.view.ShardEdgesPacked(q) {
			binary.LittleEndian.PutUint64(b[:8], k)
			binary.LittleEndian.PutUint32(b[8:], uint32(q))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// Stats is an observable snapshot of the subsystem. Events, Moved and
// MigratedBytes count since Open.
type Stats struct {
	NumParts          int     `json:"num_parts"`
	NumEdges          int64   `json:"num_edges"`
	NumVertices       int64   `json:"num_vertices"`
	ReplicationFactor float64 `json:"replication_factor"`
	EdgeBalance       float64 `json:"edge_balance"`
	Sizes             []int64 `json:"sizes"`
	Events            uint64  `json:"events"`
	Moved             int64   `json:"moved"`
	MigratedBytes     int64   `json:"migrated_bytes"`
	Epoch             uint64  `json:"epoch"`
	OverlayAdds       int64   `json:"overlay_adds"`
	OverlayDels       int64   `json:"overlay_dels"`
	Compactions       int64   `json:"compactions"`
}

// Stats returns the current snapshot.
func (l *Live) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	added, deleted := l.pending.AddedEdges(), l.pending.DeletedEdges()
	return Stats{
		NumParts:          l.st.cfg.NumParts,
		NumEdges:          l.st.numEdges,
		NumVertices:       l.st.NumVertices(),
		ReplicationFactor: l.st.ReplicationFactor(),
		EdgeBalance:       l.st.EdgeBalance(),
		Sizes:             l.st.Sizes(),
		Events:            l.st.events,
		Moved:             l.st.moved,
		MigratedBytes:     l.st.migratedBytes,
		Epoch:             l.seq,
		OverlayAdds:       added,
		OverlayDels:       deleted,
		Compactions:       l.ncomp,
	}
}
