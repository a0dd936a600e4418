package live

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"slices"
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

// Live is the dynamic-graph subsystem rooted in one directory:
//
//	state.dls       placement state (DLS1), written on checkpoints
//	part-NNNN.esh   per-partition append-only insertion log (EShard)
//	dead-NNNN.esh   per-partition append-only tombstone log (EShard)
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
	ncomp   int64 // compactions performed
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

// Open opens (or creates) a live graph in dir. cfg.NumParts must match the
// partition count the directory holds — its checkpoint's, else its number
// of insertion logs — and zero adopts it. Without a state file the logs
// alone rebuild the state, so a crash between checkpoints loses no durable
// mutation.
func Open(dir string, cfg Config) (*Live, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var st *State
	statePath := filepath.Join(dir, "state.dls")
	if f, err := os.Open(statePath); err == nil {
		st, err = func() (*State, error) { defer f.Close(); return ReadState(f) }()
		if err != nil {
			return nil, err
		}
		if cfg.NumParts != 0 && cfg.NumParts != st.cfg.NumParts {
			return nil, fmt.Errorf("live: state holds %d partitions, config asks %d", st.cfg.NumParts, cfg.NumParts)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	} else {
		// No checkpoint: the logs carry the partition count, one insertion
		// log per partition. Replaying a different count would drop
		// partitions or reshape the graph.
		n, err := countLogs(dir)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			if cfg.NumParts != 0 && cfg.NumParts != n {
				return nil, fmt.Errorf("live: log directory holds %d partitions, config asks %d", n, cfg.NumParts)
			}
			cfg.NumParts = n
		}
		if st, err = NewState(cfg); err != nil {
			return nil, err
		}
	}
	numParts := st.cfg.NumParts

	// Crash consistency first: a process SIGKILLed mid-append leaves a log
	// with a torn tail (partial frame, no terminator). Truncate each such
	// log back to its last valid chunk and reseal it before replaying —
	// un-fsynced appends were never durable, so dropping them is within the
	// durability contract.
	rec, err := recoverLogs(dir, numParts)
	if err != nil {
		return nil, err
	}

	// Replay the logs: per partition, live edges are insertions minus
	// tombstones (counts alternate 1/0 per edge — an edge is tombstoned
	// only while live, re-inserted only while dead).
	packed := make([][]uint64, numParts)
	var maxV graph.Vertex
	for q := 0; q < numParts; q++ {
		counts := make(map[uint64]int64)
		if err := replayLog(logPath(dir, "part", q), func(k uint64) { counts[k]++ }); err != nil {
			return nil, err
		}
		if err := replayLog(logPath(dir, "dead", q), func(k uint64) { counts[k]-- }); err != nil {
			return nil, err
		}
		for k, c := range counts {
			if c == 1 {
				packed[q] = append(packed[q], k)
			} else if c != 0 {
				return nil, fmt.Errorf("live: partition %d log count %d for edge %#x (want 0 or 1)", q, c, k)
			}
		}
		slices.Sort(packed[q])
		if n := len(packed[q]); n > 0 {
			if v := graph.Vertex(packed[q][n-1]); v >= maxV {
				maxV = v + 1
			}
		}
	}

	rebuildFromLogs := func() {
		for q, ks := range packed {
			for _, k := range ks {
				e := graph.UnpackEdge(k)
				st.grow(max(e.U, e.V))
				st.addIncidence(e.U, int32(q))
				st.addIncidence(e.V, int32(q))
				st.sizes[q]++
				st.numEdges++
			}
		}
	}

	if st.events == 0 && st.numEdges == 0 {
		// No saved state (or a fresh directory): rebuild the slabs from the
		// replayed live edge set. Placement history (events, moved) is
		// unknowable from logs alone and restarts at zero.
		rebuildFromLogs()
	} else if stateMatchesLogs(st, packed) == nil {
		// Saved state agrees with the logs exactly: resume it, history
		// included.
	} else if mismatch := stateMatchesLogs(st, packed); rec.DroppedBytes > 0 || logsCoverState(st, packed) {
		// The checkpoint describes a moment the logs no longer (torn tail
		// recovered behind it) or not yet (appends landed after it — the
		// checkpoint is stale) capture. The logs are the durable truth:
		// discard the checkpointed slabs and rebuild placement from replay.
		// Placement history restarts at zero, like a stateless open.
		fresh, err := NewState(st.cfg)
		if err != nil {
			return nil, err
		}
		st = fresh
		rebuildFromLogs()
		rec.StateRebuilt = true
		rec.StateMismatch = mismatch.Error()
		liveObs.stateRebuilds.Add(1)
	} else {
		// Logs replay fewer edges than the checkpoint with no torn tail in
		// sight: the directory mixes runs or a log was tampered with.
		// Rebuilding would silently corrupt placement — refuse.
		return nil, stateMatchesLogs(st, packed)
	}
	if n := uint32(len(st.deg)); n > uint32(maxV) {
		maxV = graph.Vertex(n)
	}
	if maxV == 0 {
		maxV = 1 // BuildFromShards wants a nonempty universe even when idle
	}

	base, err := store.BuildFromShards(uint32(maxV), packed)
	if err != nil {
		return nil, err
	}
	l := &Live{
		dir:      dir,
		st:       st,
		base:     base,
		pending:  store.NewDelta(numParts),
		recovery: rec,
	}
	l.view = store.NewEpoch(base, l.pending, 0)
	if l.adds, err = openLogs(dir, "part", numParts); err != nil {
		return nil, err
	}
	if l.dead, err = openLogs(dir, "dead", numParts); err != nil {
		l.closeLogs()
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
	for _, name := range []string{"state.dls", "part-0000.esh", "dead-0000.esh"} {
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
	for q, keys := range packed {
		if err := writeLogFile(logPath(dir, "part", q), q, cfg.NumParts, keys); err != nil {
			return nil, err
		}
	}
	return Open(dir, cfg)
}

func logPath(dir, kind string, q int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%04d.esh", kind, q))
}

// countLogs counts contiguous part-NNNN.esh logs from 0 — the partition
// count of a directory whose checkpoint is missing (0 if no logs).
func countLogs(dir string) (int, error) {
	n := 0
	for ; n < maxParts; n++ {
		if _, err := os.Stat(logPath(dir, "part", n)); os.IsNotExist(err) {
			break
		} else if err != nil {
			return 0, err
		}
	}
	return n, nil
}

// replayLog streams every packed edge of an EShard log into fn; a missing
// file is an empty log.
func replayLog(path string, fn func(k uint64)) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	sr, err := graph.NewShardReader(f)
	if err != nil {
		return fmt.Errorf("live: %s: %w", path, err)
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

// openLogs opens every per-partition log of one kind for appending,
// creating missing ones.
func openLogs(dir, kind string, numParts int) ([]*graph.ShardWriter, error) {
	out := make([]*graph.ShardWriter, numParts)
	for q := range out {
		path := logPath(dir, kind, q)
		sw, err := graph.OpenShardAppend(path)
		if os.IsNotExist(err) {
			sw, err = graph.CreateShardFile(path, graph.ShardInfo{
				NumVertices: logNumVertices, Index: uint32(q), Count: uint32(numParts),
			})
		}
		if err != nil {
			for _, o := range out[:q] {
				if o != nil {
					o.Close()
				}
			}
			return nil, fmt.Errorf("live: opening %s: %w", path, err)
		}
		out[q] = sw
	}
	return out, nil
}

func (l *Live) closeLogs() {
	for _, ws := range [2][]*graph.ShardWriter{l.adds, l.dead} {
		for _, w := range ws {
			if w != nil {
				w.Close()
			}
		}
	}
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
	if err := l.st.checkBatch(events); err != nil {
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
// per-partition logs to exactly the live edge set, checkpoints the
// placement state, and publishes the compacted epoch. Readers keep serving
// from their pinned epochs throughout; only writers wait.
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
	// The writer view's vertex bound is stale (fixed at its creation), so
	// derive the universe from the state slabs and the edges themselves.
	n := max(l.base.NumVertices(), uint32(len(l.st.deg)), 1)
	for q := 0; q < numParts; q++ {
		packed[q] = l.view.ShardEdgesPacked(q)
		if m := len(packed[q]); m > 0 {
			if v := uint32(packed[q][m-1]) + 1; v > n {
				n = v
			}
		}
	}
	base, err := store.BuildFromShards(n, packed)
	if err != nil {
		return err
	}

	// Rewrite the logs to the live edge set: fresh adds, empty tombstones,
	// written beside and renamed over the old generation so a crash
	// mid-compaction leaves a replayable directory.
	for q := 0; q < numParts; q++ {
		if err := l.adds[q].Close(); err != nil {
			return err
		}
		if err := l.dead[q].Close(); err != nil {
			return err
		}
	}
	for q := 0; q < numParts; q++ {
		if err := writeLogFile(logPath(l.dir, "part", q), q, numParts, packed[q]); err != nil {
			return err
		}
		if err := writeLogFile(logPath(l.dir, "dead", q), q, numParts, nil); err != nil {
			return err
		}
	}
	if l.adds, err = openLogs(l.dir, "part", numParts); err != nil {
		return err
	}
	if l.dead, err = openLogs(l.dir, "dead", numParts); err != nil {
		return err
	}

	l.base = base
	l.pending = store.NewDelta(numParts)
	l.view = store.NewEpoch(base, l.pending, 0)
	l.ncomp++
	if err := l.checkpointLocked(); err != nil {
		return err
	}
	l.publishLocked()
	return nil
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

// Checkpoint saves the placement state so the next Open can skip the slab
// rebuild and verify the logs against it.
func (l *Live) Checkpoint() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("live: closed")
	}
	return l.checkpointLocked()
}

func (l *Live) checkpointLocked() error {
	_, err := binio.Replace(filepath.Join(l.dir, "state.dls"), func(w io.Writer) error {
		return WriteState(w, l.st)
	})
	return err
}

// Close checkpoints the state and seals the logs (footer rewrite). The
// last published epoch keeps serving pinned readers.
func (l *Live) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var firstErr error
	for q := range l.adds {
		if err := l.adds[q].Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := l.dead[q].Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := l.checkpointLocked(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
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

// Stats is an observable snapshot of the subsystem.
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
