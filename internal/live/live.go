package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
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

// defaultMinOverlay is the smallest auto-compaction threshold: the overlay
// may always grow to this many mutations before a compaction triggers.
const defaultMinOverlay = 1 << 16

// Live is the dynamic-graph subsystem rooted in one directory, which holds
// three files per partition q of P and nothing else:
//
//	shard-QQQQ-of-PPPP.esz   base: the sorted ESZ1 live edges of the last compaction
//	shard-QQQQ-of-PPPP.add   tail: raw EShard insertions since the base
//	shard-QQQQ-of-PPPP.dead  tail: raw EShard tombstones since the base
//
// The bases alone are a shard directory that any shard reader opens; the
// tails' extensions keep shard scanners (*.esh, *.esz) from reading them.
// A tail is written on the graph's first mutation, so a graph that is only
// served holds its bases and nothing else.
//
// Mutations (Apply, Rebalance, Compact) serialize on one mutex; queries
// never take it — they pin the current Epoch with one atomic load and run
// against that immutable snapshot, so readers never block and never
// observe a partial batch. A graph pays for writing only once it is
// written: the placement state is built, and the tails opened, by the
// first mutation.
type Live struct {
	dir string
	cfg Config // NumParts as the bases give it

	mu      sync.Mutex
	st      *State // nil until stateLocked builds it
	base    *store.Store
	overlay *store.Writer        // the mutations since base; each publish seals its pending ones into a run
	adds    []*graph.ShardWriter // nil until mutableLocked opens the tails
	dead    []*graph.ShardWriter
	seq     uint64
	ncomp   int64  // compactions performed
	logKeys uint64 // edge keys the bases and tails hold, insertions and tombstones
	closed  bool

	epoch       atomic.Pointer[store.Epoch] // published snapshot; readers load and go
	lastPublish atomic.Int64                // UnixNano of the last published epoch

	recovery Recovery // what Open had to repair; immutable afterwards

	// The instruments Instrument attaches: the store's, hung on every base,
	// and the maintenance duration histograms. nil (the default) records
	// nothing.
	storeObs     *store.Obs
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

// Open opens (or creates) a live graph in dir and serves the graph its bases
// and tails hold, the one durable copy of it. The bases carry the partition
// count: cfg.NumParts must match it, and zero adopts it. Each file's header
// must name its partition and that count. The vertex ids the graph serves
// run to the largest live id and the largest |V| a base header declares,
// and all the edge keys, tombstones too, must back that count
// (graph.VertexClaimOK), as Create, Apply and Compact keep them; Open
// refuses any other directory with ErrVertexClaim before sizing anything
// by it. Open builds no placement state and opens no tail: a graph that is
// only queried never pays for them.
func Open(dir string, cfg Config) (*Live, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n, err := settle(dir)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		if cfg.NumParts != 0 && cfg.NumParts != n {
			return nil, fmt.Errorf("live: directory holds %d partitions, config asks %d", n, cfg.NumParts)
		}
		cfg.NumParts = n
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if n == 0 {
		if err := writeBases(dir, 0, make([][]uint64, cfg.NumParts)); err != nil {
			return nil, err
		}
	}

	var rec Recovery
	packed := make([][]uint64, cfg.NumParts)
	var nv uint32 // vertex ids served
	var logKeys uint64
	for q := range packed {
		var runs [3][]uint64
		for i, kind := range []string{kindBase, tailAdd, tailDead} {
			var info graph.ShardInfo
			if info, runs[i], err = readRun(dir, kind, q, cfg.NumParts, &rec); err != nil {
				return nil, err
			}
			if kind == kindBase {
				nv = max(nv, info.NumVertices)
			}
			logKeys += uint64(len(runs[i]))
		}
		if packed[q], err = merge(q, runs); err != nil {
			return nil, err
		}
		for _, k := range packed[q] {
			nv = max(nv, graph.UnpackEdge(k).V+1)
		}
	}
	if !graph.VertexClaimOK(uint64(nv), logKeys) {
		return nil, fmt.Errorf("%w: directory names %d vertices with %d edge keys", ErrVertexClaim, nv, logKeys)
	}
	base, err := store.BuildFromShards(max(nv, 1), packed) // BuildFromShards wants a nonempty universe
	if err != nil {
		return nil, err
	}
	l := &Live{
		dir:      dir,
		cfg:      cfg,
		base:     base,
		overlay:  store.NewWriter(base),
		logKeys:  logKeys,
		recovery: rec,
	}
	l.publishLocked()
	return l, nil
}

// Create seeds a new live graph in dir from a static partitioning p of g:
// the §8 workflow of partitioning a snapshot offline, typically with
// Distributed NE, then maintaining it incrementally. Each partition's edges
// become its base, under g's |V|, and Open serves them. Zero cfg.NumParts
// adopts p's count; dir must not already hold a live graph.
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
	if bases, _ := filepath.Glob(filepath.Join(dir, "shard-0000-of-*.esz")); len(bases) > 0 {
		return nil, fmt.Errorf("live: %s already holds a live graph (%s)", dir, filepath.Base(bases[0]))
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
	if err := writeBases(dir, g.NumVertices(), packed); err != nil {
		return nil, err
	}
	return Open(dir, cfg)
}

// The kinds of a partition's files.
const (
	kindBase = "esz"  // the base
	tailAdd  = "add"  // insertions since the base
	tailDead = "dead" // tombstones since the base
)

// runPath is partition q's file of kind kind: the base is ESZ1 shard q of
// numParts under the store's file name, and each tail sits beside it with
// its kind as the extension.
func runPath(dir, kind string, q, numParts int) string {
	return filepath.Join(dir, strings.TrimSuffix(graph.CompressedShardFileName(q, numParts), kindBase)+kind)
}

// layoutName matches a file of a live directory: partition, partition count,
// kind and the temp suffix of a write in progress; nextSuffix marks the
// base a compaction writes beside the old one (see rebase).
var layoutName = regexp.MustCompile(`^shard-(\d{4})-of-(\d{4})\.(esz|esz\.next|add|dead)(\.tmp)?$`)

const nextSuffix = ".next"

// writeBases writes packed[q] as partition q's base with header |V| nv,
// highest partition first: base 0 comes last and marks a whole directory.
func writeBases(dir string, nv uint32, packed [][]uint64) error {
	n := len(packed)
	for q := n - 1; q >= 0; q-- {
		info := graph.ShardInfo{NumVertices: nv, Index: uint32(q), Count: uint32(n)}
		if err := graph.WriteCompressedShard(runPath(dir, kindBase, q, n), info, packed[q]); err != nil {
			return err
		}
	}
	return nil
}

// settle finishes what a crash left half done in dir and returns its
// partition count, which base 0's name gives. It deletes temp files, and
// completes or discards each compaction by rebase's commit rule. Files
// without base 0 never formed a whole directory (see writeBases): if none
// holds an edge, a crash cut a fresh Open short, and they are deleted.
// Otherwise every file must belong to one of base 0's partitions.
func settle(dir string) (int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var files [][]string // layoutName matches
	n := 0
	for _, e := range ents {
		switch m := layoutName.FindStringSubmatch(e.Name()); {
		case m == nil:
		case m[4] != "": // an interrupted write
			if err := os.Remove(filepath.Join(dir, m[0])); err != nil {
				return 0, err
			}
		default:
			files = append(files, m)
			if m[1] == "0000" && m[3] == kindBase {
				n, _ = strconv.Atoi(m[2])
			}
		}
	}
	if n == 0 {
		for _, m := range files {
			path := filepath.Join(dir, m[0])
			if _, keys, err := graph.ReadShardFile(path); err != nil || len(keys) > 0 {
				return 0, fmt.Errorf("live: %s has no base for partition 0", dir)
			}
			if err := os.Remove(path); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	for _, m := range files {
		q, _ := strconv.Atoi(m[1])
		if c, _ := strconv.Atoi(m[2]); c != n || q >= n {
			return 0, fmt.Errorf("live: %s holds %s, not a file of its %d partitions", dir, m[0], n)
		}
		if m[3] != kindBase+nextSuffix {
			continue
		}
		if _, err = os.Stat(runPath(dir, tailDead, q, n)); err == nil {
			err = os.Remove(filepath.Join(dir, m[0]))
		} else if os.IsNotExist(err) {
			err = finishRebase(dir, q, n, tailAdd)
		}
		if err != nil {
			return 0, err
		}
	}
	return n, syncDir(dir) // a finished rebase is durable before Open writes fresh tails
}

// readRun decodes partition q's file of kind kind, which must declare
// itself shard q of numParts, and returns its header and its keys. A
// missing base is an error, a missing tail an empty one; a tail's torn end,
// which a crash mid-append leaves, is cut back first (the un-fsynced
// appends it held were never durable).
func readRun(dir, kind string, q, numParts int, rec *Recovery) (graph.ShardInfo, []uint64, error) {
	path := runPath(dir, kind, q, numParts)
	if kind != kindBase {
		_, dropped, err := graph.RecoverShardTail(path)
		if os.IsNotExist(err) {
			return graph.ShardInfo{}, nil, nil
		}
		if err != nil {
			return graph.ShardInfo{}, nil, fmt.Errorf("live: recovering %s: %w", path, err)
		}
		if dropped > 0 {
			rec.TornLogs++
			rec.DroppedBytes += dropped
			liveObs.tornLogs.Add(1)
			liveObs.tornBytes.Add(dropped)
		}
	}
	info, keys, err := graph.ReadShardFile(path)
	if err == nil && (info.Index != uint32(q) || info.Count != uint32(numParts)) {
		err = fmt.Errorf("%s declares shard %d of %d, want %d of %d", path, info.Index, info.Count, q, numParts)
	}
	if err != nil {
		return info, nil, fmt.Errorf("live: %w", err)
	}
	return info, keys, nil
}

// merge sorts the tails and walks the three runs of partition q once,
// returning its live edges in ascending order. A key is live when the base
// and the insertions name it once more than the tombstones do; any other
// count but 0 is an error (an edge is tombstoned only while live and
// re-inserted only while dead), and so is a base that does not ascend.
func merge(q int, runs [3][]uint64) ([]uint64, error) {
	if !slices.IsSorted(runs[0]) {
		return nil, fmt.Errorf("live: partition %d base not sorted", q)
	}
	slices.Sort(runs[1])
	slices.Sort(runs[2])
	out := runs[0][:0] // without insertions the live edges are a subsequence of the base
	if len(runs[1]) > 0 {
		out = make([]uint64, 0, len(runs[0])+len(runs[1]))
	}
	for {
		key := uint64(math.MaxUint64) // above every canonical key
		for _, r := range runs {
			if len(r) > 0 {
				key = min(key, r[0])
			}
		}
		if key == math.MaxUint64 {
			return out, nil
		}
		c := 0
		for i, sign := range [3]int{1, 1, -1} {
			for ; len(runs[i]) > 0 && runs[i][0] == key; runs[i] = runs[i][1:] {
				c += sign
			}
		}
		if c == 1 {
			out = append(out, key)
		} else if c != 0 {
			return nil, fmt.Errorf("live: partition %d log count %d for edge %#x (want 0 or 1)", q, c, key)
		}
	}
}

// openLogs opens every tail for appending. A missing tail is first written
// whole and empty, so a crash never leaves one without its header. On
// failure no tail stays open.
func (l *Live) openLogs() error {
	numParts := l.cfg.NumParts
	l.adds, l.dead = make([]*graph.ShardWriter, numParts), make([]*graph.ShardWriter, numParts)
	for _, t := range []struct {
		kind string
		ws   []*graph.ShardWriter
	}{{tailAdd, l.adds}, {tailDead, l.dead}} {
		for q := range t.ws {
			path := runPath(l.dir, t.kind, q, numParts)
			sw, err := graph.OpenShardAppend(path)
			if os.IsNotExist(err) {
				if err = writeTail(path, q, numParts); err == nil {
					sw, err = graph.OpenShardAppend(path)
				}
			}
			if err != nil {
				l.closeLogs()
				l.adds, l.dead = nil, nil
				return fmt.Errorf("live: opening %s: %w", path, err)
			}
			t.ws[q] = sw
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

// publishLocked seals the overlay's pending mutations into the next epoch,
// which shares every older run with the one before. Callers hold mu.
func (l *Live) publishLocked() {
	l.seq++
	l.epoch.Store(l.overlay.Epoch(l.seq))
	l.lastPublish.Store(time.Now().UnixNano())
}

// viewLocked returns the graph as the writer holds it, pending mutations
// included. Callers hold mu.
func (l *Live) viewLocked() *store.Epoch { return l.overlay.Epoch(l.seq) }

// Epoch returns the current published snapshot. Queries run entirely
// against it — the pointer is immutable, so a long traversal keeps its
// epoch while writers publish new ones.
func (l *Live) Epoch() *store.Epoch { return l.epoch.Load() }

// State returns the placement state for inspection, building it if no
// mutation has yet. Mutating it outside the Live methods corrupts the
// subsystem.
func (l *Live) State() *State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stateLocked()
}

// stateLocked returns the placement state, first rebuilding it from the
// graph's edges, partition by partition in key order, if it has not been
// built. Callers hold mu.
func (l *Live) stateLocked() *State {
	if l.st != nil {
		return l.st
	}
	st, _ := NewState(l.cfg) // Open validated cfg
	view := l.viewLocked()
	for q := range l.cfg.NumParts {
		for _, k := range view.ShardEdgesPacked(q) {
			e := graph.UnpackEdge(k)
			st.ApplyInsert(e.U, e.V, int32(q))
		}
	}
	st.events = 0 // Events count mutations, not the rebuild
	l.st = st
	return st
}

// mutableLocked readies an open graph for a mutation: the placement state
// built and the tails open. Callers hold mu.
func (l *Live) mutableLocked() error {
	if l.closed {
		return fmt.Errorf("live: closed")
	}
	l.stateLocked()
	if l.adds == nil {
		return l.openLogs()
	}
	return nil
}

// ownerLocked resolves the partition holding live edge (u,v), u < v, −1
// when the edge is absent. Endpoints that share no partition answer at once
// from the placement state; otherwise the overlay answers, with one binary
// search per run and per base shard holding both endpoints.
func (l *Live) ownerLocked(u, v graph.Vertex) int32 {
	if !l.st.shareReplica(u, v) {
		return -1
	}
	return l.overlay.Owner(u, v)
}

// Apply ingests a batch of events in order and returns how many changed
// state (duplicate insertions, self loops and deletions of absent edges
// don't count). One epoch is published per batch, so batching amortizes
// sealing the batch into a run; when the overlay outgrows maxOverlay the batch ends
// with an automatic compaction. A batch with an unknown op, or with vertex
// ids its edges cannot pay for (ErrVertexClaim), is rejected whole before
// anything is logged or placed.
func (l *Live) Apply(events []dynpart.Event) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.mutableLocked(); err != nil {
		return 0, err
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
			l.overlay.Add(int(q), c.U, c.V)
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
			l.overlay.Remove(int(q), c.U, c.V)
			changed++
		}
	}
	added, deleted := l.overlay.Mutations()
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
// counted against the keys the bases and tails will hold after the batch.
// That is the bound Open applies, so a directory Apply wrote always reopens;
// and one edge with an endpoint near 2³² cannot command a multi-GiB |V|×P
// slab. The batch's own edges count only when the files alone fall short, and
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
// replicas. Migrations are ordinary mutations — a tombstone in the source's
// tail, an insertion in the target's, and one overlay entry that shadows the
// source copy and names the target — published as one epoch, so readers
// see each move atomically. The pass is deterministic (partitions in id
// order, edges in canonical order). Returns the number of edges moved.
func (l *Live) Rebalance(budget int) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.mutableLocked(); err != nil {
		return 0, err
	}
	start := time.Now()
	defer func() { l.obsRebalance.Observe(int64(time.Since(start))) }()
	cap := l.st.capEdges(0)
	moved := 0
	sizes := l.st.sizes
	for q := int32(0); int(q) < l.cfg.NumParts && moved < budget; q++ {
		if sizes[q] <= cap {
			continue
		}
		for _, k := range l.viewLocked().ShardEdgesPacked(int(q)) {
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
			l.overlay.Remove(int(q), e.U, e.V)
			l.overlay.Add(int(t), e.U, e.V)
			moved++
		}
	}
	if moved > 0 {
		l.publishLocked()
	}
	return moved, nil
}

// Compact folds the overlay into a fresh base store, rebases every
// partition on exactly its live edges, with empty tails (unless those
// edges would no longer back the largest vertex id; see compactLocked), and
// publishes the compacted epoch. Readers keep serving from their pinned
// epochs throughout; only writers wait.
func (l *Live) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.mutableLocked(); err != nil {
		return err
	}
	return l.compactLocked()
}

func (l *Live) compactLocked() error {
	start := time.Now()
	defer func() { l.obsCompact.Observe(int64(time.Since(start))) }()
	numParts := l.cfg.NumParts
	packed := make([][]uint64, numParts)
	view := l.viewLocked()
	for q := range packed {
		packed[q] = view.ShardEdgesPacked(q)
	}
	base, err := store.BuildFromShards(max(l.base.NumVertices(), uint32(len(l.st.deg)), 1), packed)
	if err != nil {
		return err
	}
	base.SetObs(l.storeObs)

	// Rebase each partition on its live edges, one at a time. That drops the
	// tails' history, which Open counts toward the vertex claim, so it waits
	// while the live edges alone would not back the largest live vertex id;
	// the bases' header |V| is that id plus one.
	top := len(l.st.deg) // one past the largest live vertex id
	for top > 0 && l.st.deg[top-1] == 0 {
		top--
	}
	if graph.VertexClaimOK(uint64(top), uint64(l.st.numEdges)) {
		if err := l.closeLogs(); err != nil {
			return err
		}
		for q := range packed {
			if err := rebase(l.dir, q, numParts, uint32(top), packed[q]); err != nil {
				return err
			}
		}
		// The last rename must be durable before fresh tails are.
		if err := syncDir(l.dir); err != nil {
			return err
		}
		if err := l.openLogs(); err != nil {
			return err
		}
		l.logKeys = uint64(l.st.numEdges)
	}

	l.base = base
	l.overlay = store.NewWriter(base)
	l.ncomp++
	l.publishLocked()
	return nil
}

// rebase replaces partition q's base and tails with one base holding its
// live edges, under header |V| nv: it writes <base>.next, removes the
// tombstone tail (the commit point), and finishRebase does the rest. settle
// discards a .next beside a tombstone tail and finishes the rebase without
// one. Each step is fsynced before the next, so a crash, power cuts too,
// opens one whole generation, never the new base with the old tails.
func rebase(dir string, q, numParts int, nv uint32, packed []uint64) error {
	info := graph.ShardInfo{NumVertices: nv, Index: uint32(q), Count: uint32(numParts)}
	if err := graph.WriteCompressedShard(runPath(dir, kindBase, q, numParts)+nextSuffix, info, packed); err != nil {
		return err
	}
	return finishRebase(dir, q, numParts, tailDead, tailAdd)
}

// finishRebase removes partition q's tails of the given kinds in order,
// fsyncing dir before each removal and after the last, and then renames
// the .next over the base.
func finishRebase(dir string, q, numParts int, kinds ...string) error {
	for _, kind := range kinds {
		if err := syncDir(dir); err != nil {
			return err
		}
		if err := os.Remove(runPath(dir, kind, q, numParts)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	base := runPath(dir, kindBase, q, numParts)
	return os.Rename(base+nextSuffix, base)
}

// syncDir makes the renames and removals in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = errors.Join(d.Sync(), d.Close())
	}
	return err
}

// writeTail atomically replaces path with an empty tail of partition q. Its
// header |V| is unbounded: the live vertex universe grows with the stream.
func writeTail(path string, q, numParts int) error {
	_, err := binio.Replace(path, func(w io.Writer) error {
		sw, err := graph.NewShardWriter(w, graph.ShardInfo{NumVertices: ^uint32(0), Index: uint32(q), Count: uint32(numParts)})
		if err == nil {
			err = sw.Close()
		}
		return err
	})
	return err
}

// Close seals the tails (footer rewrite). The last published epoch keeps
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
	view := l.viewLocked()
	for q := range l.cfg.NumParts {
		for _, k := range view.ShardEdgesPacked(q) {
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

// Stats returns the current snapshot. A graph never written reads it off
// its base, with the values its placement state would give.
func (l *Live) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	added, deleted := l.overlay.Mutations()
	s := Stats{
		NumParts:    l.cfg.NumParts,
		Epoch:       l.seq,
		OverlayAdds: added,
		OverlayDels: deleted,
		Compactions: l.ncomp,
	}
	if st := l.st; st != nil {
		s.NumEdges, s.NumVertices = st.numEdges, st.NumVertices()
		s.ReplicationFactor, s.EdgeBalance, s.Sizes = st.ReplicationFactor(), st.EdgeBalance(), st.Sizes()
		s.Events, s.Moved, s.MigratedBytes = st.events, st.moved, st.migratedBytes
		return s
	}
	// Unwritten, the graph is its base: its shards' sizes, and its covered
	// vertices and their replicas from the replica index.
	st := &State{sizes: make([]int64, l.cfg.NumParts)}
	for q := range st.sizes {
		st.sizes[q] = l.base.ShardEdges(q)
		st.numEdges += st.sizes[q]
		st.replicas += int64(l.base.ShardVertices(q))
	}
	for v := range l.base.NumVertices() {
		if len(l.base.Replicas(v)) > 0 {
			st.vertices++
		}
	}
	s.NumEdges, s.NumVertices = st.numEdges, st.vertices
	s.ReplicationFactor, s.EdgeBalance, s.Sizes = st.ReplicationFactor(), st.EdgeBalance(), st.sizes
	return s
}
