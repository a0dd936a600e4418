package store

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"github.com/distributedne/dne/internal/graph"
)

// compactYieldStride bounds how long compaction-side loops run between
// voluntary yields. Compaction shares the scheduler with live queries that
// pin epochs instead of locking; on a machine with few cores a compactor
// that only gets preempted every ~10ms would add that quantum to query tail
// latency, so the heavy loops yield every stride iterations (~1ms of work)
// to keep foreground tails near steady state.
const compactYieldStride = 1 << 14

// Epoch layer: the one read path. A Store is the immutable base; arrivals
// and retractions go to a Writer, which seals each batch into an immutable
// sorted run (overlay.go); an Epoch is an immutable (base, runs) pair
// readers resolve queries against, and consecutive epochs share every run
// the newest batch did not merge into. A Store's own queries run on an Epoch
// with no overlay, so Neighbors and KHop exist once, here, and every one of
// them counts into the base's Metrics. Readers pin an epoch (one atomic
// pointer load in the live layer) and never observe a partial update; a
// compactor folds the overlay into a fresh base with BuildFromShards and
// publishes the next epoch.

// BuildFromShards materializes per-shard canonical packed edge lists into a
// Store. It is the one CSR builder: BuildPartitioning buckets a graph's
// edges by owner into it, and a live graph builds every base it opens or
// compacts through it. shardEdges[s] holds
// shard s's edges as PackEdge keys (u < v), strictly increasing; duplicates
// and endpoints ≥ numVertices are rejected, and so is an edge two shards
// hold. Each shard costs O(|Es| + |V|/64) with one dense vertex scratch
// reused across shards, and the replica index over all of them
// O(|V| + Σ|V(Es)| + |E|).
func BuildFromShards(numVertices uint32, shardEdges [][]uint64) (*Store, error) {
	numShards := len(shardEdges)
	if numShards == 0 {
		return nil, fmt.Errorf("store: no shards")
	}
	st := &Store{
		numVertices: numVertices,
		shards:      make([]*shard, numShards),
	}
	b := newShardBuilder(numVertices)
	for s, packed := range shardEdges {
		sh, err := b.build(s, packed)
		if err != nil {
			return nil, err
		}
		st.numEdges += sh.edges
		st.shards[s] = sh
	}
	if err := st.buildRouting(b.scratch); err != nil {
		return nil, err
	}
	return st.serve(), nil
}

// shardBuilder turns canonical packed edge lists into shard CSRs. Its dense
// scratch over vertex ids — a local degree and then a slot per vertex, and a
// bitset of the vertices the shard touches — is clear between shards, so one
// builder serves every shard of a store. A failed build leaves it dirty.
type shardBuilder struct {
	numVertices uint32
	scratch     []uint32 // per vertex: local degree, then slot
	touched     []uint64 // bitset of the vertices the current shard touches
}

func newShardBuilder(numVertices uint32) *shardBuilder {
	return &shardBuilder{
		numVertices: numVertices,
		scratch:     make([]uint32, numVertices),
		touched:     make([]uint64, (uint64(numVertices)+63)/64),
	}
}

// build returns shard s holding the packed edges. Each vertex's adjacency
// lists its neighbours in key order, which for canonical sorted keys is
// ascending. Both passes over the edges yield between chunks of
// compactYieldStride edges: compaction rebuilds its shards here.
func (b *shardBuilder) build(s int, packed []uint64) (*shard, error) {
	numLocal := 0
	var prev uint64
	for lo := 0; lo < len(packed); lo += compactYieldStride {
		if lo > 0 {
			runtime.Gosched()
		}
		for i := lo; i < min(lo+compactYieldStride, len(packed)); i++ {
			k := packed[i]
			u, v := graph.Vertex(k>>32), graph.Vertex(k)
			if u >= v {
				return nil, fmt.Errorf("store: shard %d edge %d (%d,%d) not canonical", s, i, u, v)
			}
			if v >= b.numVertices {
				return nil, fmt.Errorf("store: shard %d edge %d endpoint %d out of range [0,%d)", s, i, v, b.numVertices)
			}
			if i > 0 && k <= prev {
				return nil, fmt.Errorf("store: shard %d edges not strictly increasing at %d", s, i)
			}
			prev = k
			for _, x := range [2]graph.Vertex{u, v} {
				if b.scratch[x] == 0 {
					b.touched[x/64] |= 1 << (x % 64)
					numLocal++
				}
				b.scratch[x]++
			}
		}
	}
	sh := &shard{
		verts: make([]graph.Vertex, 0, numLocal),
		off:   make([]int64, numLocal+1),
		edges: int64(len(packed)),
	}
	// Read the touched vertices out in id order. off[l] is first set to the
	// end of slot l's range, and the scratch entry turns from degree to slot.
	var end int64
	for i, word := range b.touched {
		for ; word != 0; word &= word - 1 {
			v := graph.Vertex(i*64 + bits.TrailingZeros64(word))
			end += int64(b.scratch[v])
			sh.off[len(sh.verts)] = end
			b.scratch[v] = uint32(len(sh.verts))
			sh.verts = append(sh.verts, v)
		}
		b.touched[i] = 0
	}
	sh.off[numLocal] = end
	// Fill back to front, each placement moving its slot's off entry down
	// by one: every off[l] ends at the start of its range, and each
	// adjacency holds its neighbours in key order.
	sh.tgt = make([]graph.Vertex, end)
	for hi := len(packed); hi > 0; hi -= compactYieldStride {
		if hi < len(packed) {
			runtime.Gosched()
		}
		for i := hi - 1; i >= max(hi-compactYieldStride, 0); i-- {
			u, v := graph.Vertex(packed[i]>>32), graph.Vertex(packed[i])
			lu, lv := b.scratch[u], b.scratch[v]
			sh.off[lu]--
			sh.tgt[sh.off[lu]] = v
			sh.off[lv]--
			sh.tgt[sh.off[lv]] = u
		}
	}
	for _, v := range sh.verts {
		b.scratch[v] = 0
	}
	return sh, nil
}

// Epoch is one immutable snapshot of the graph: a base Store plus a frozen
// overlay (nil for a compacted epoch, and for the view every Store queries
// through). Safe for concurrent use; queries resolve against the base with
// every edge the overlay names shadowed, plus the overlay's live edges, and
// count into the base's Metrics.
type Epoch struct {
	base        *Store
	ov          *overlay
	seq         uint64
	numVertices uint32

	canonOnce sync.Once
	canon     *run // ov.canonical(), built by the first ShardEdgesPacked
}

// newEpoch freezes (base, ov) into snapshot number seq; ov may be nil.
func newEpoch(base *Store, ov *overlay, seq uint64) *Epoch {
	return &Epoch{base: base, ov: ov, seq: seq, numVertices: base.numVertices}
}

// Seq returns the epoch's publish sequence number.
func (e *Epoch) Seq() uint64 { return e.seq }

// NumVertices returns |V| as of this epoch (base, extended by any overlay
// insertions naming new vertex ids).
func (e *Epoch) NumVertices() uint32 { return e.numVertices }

// NumShards returns the shard count.
func (e *Epoch) NumShards() int { return len(e.base.shards) }

// Metrics returns the counters of the base the epoch's queries count into.
func (e *Epoch) Metrics() Metrics { return e.base.Metrics() }

// ShardEdges returns the live edge count of shard s.
func (e *Epoch) ShardEdges(s int) int64 {
	n := e.base.shards[s].edges
	if e.ov != nil {
		n += e.ov.addN[s] - e.ov.delN[s]
	}
	return n
}

// OverlayEdges returns the overlay's (insertions, deletions) totals — the
// compaction debt of this epoch.
func (e *Epoch) OverlayEdges() (added, deleted int64) {
	if e.ov == nil {
		return 0, 0
	}
	return e.ov.mutations()
}

// entryPool keeps the scratch overlay queries resolve a vertex's entries in.
var entryPool = sync.Pool{New: func() any { return new(entryScratch) }}

// Replicas returns the shards holding a live copy of v, sorted by shard
// id. Base replica lists are not shrunk by overlay deletions until
// compaction — a fully-deleted replica still answers (with an empty
// adjacency), it just costs a fetch; compaction removes it.
func (e *Epoch) Replicas(v graph.Vertex) []int32 {
	base, _ := e.baseReplicas(v)
	if e.ov == nil {
		return base
	}
	sc := entryPool.Get().(*entryScratch)
	extra := overlayShards(nil, e.ov.entriesOf(v, sc), base)
	entryPool.Put(sc)
	if len(extra) == 0 {
		return base
	}
	merged := append(slices.Clone(base), extra...)
	slices.Sort(merged)
	return merged
}

// baseReplicas returns the base shards holding v, sorted, and v's slot in
// each; none for a vertex the overlay minted.
func (e *Epoch) baseReplicas(v graph.Vertex) ([]int32, []uint32) {
	if v >= e.base.numVertices {
		return nil, nil
	}
	return e.base.replicas.Of(v)
}

// noSlot stands for a shard that holds no base copy of the vertex: only
// overlay insertions.
const noSlot = ^uint32(0)

// errVertex reports v outside the epoch's vertex range.
func (e *Epoch) errVertex(v graph.Vertex) error {
	return fmt.Errorf("store: vertex %d out of range [0,%d)", v, e.numVertices)
}

// Neighbors returns v's live neighbor set, sorted. Each live edge is held
// by exactly one shard, so the per-shard lists concatenate without
// duplicates.
func (e *Epoch) Neighbors(v graph.Vertex) ([]graph.Vertex, error) {
	m := &e.base.metrics
	defer m.end(qNeighbors, m.begin(qNeighbors))
	if v >= e.numVertices {
		return nil, e.errVertex(v)
	}
	reps, slots := e.baseReplicas(v)
	if e.ov != nil {
		return e.overlayNeighbors(v, reps, slots), nil
	}
	// One allocation of the exact size.
	var n int64
	for i, s := range reps {
		n += e.base.shards[s].degreeOf(slots[i])
	}
	out := slices.Grow([]graph.Vertex(nil), int(n))
	for i, s := range reps {
		m.touchShard(int(s))
		out = append(out, e.base.shards[s].neighborsOf(slots[i])...)
	}
	m.addHops(crossHops(len(reps)))
	slices.Sort(out)
	return out, nil
}

// overlayNeighbors is Neighbors on an epoch with an overlay: each base copy
// of v minus the edges the overlay shadows, plus the overlay's live edges at
// v, whose shards outside reps cost a fetch each.
func (e *Epoch) overlayNeighbors(v graph.Vertex, reps []int32, slots []uint32) []graph.Vertex {
	m := &e.base.metrics
	sc := entryPool.Get().(*entryScratch)
	defer entryPool.Put(sc)
	ents := e.ov.entriesOf(v, sc)
	var out []graph.Vertex
	for i, s := range reps {
		m.touchShard(int(s))
		out = appendLive(out, e.base.shards[s].neighborsOf(slots[i]), ents)
	}
	extra := overlayShards(nil, ents, reps)
	for _, s := range extra {
		m.touchShard(int(s))
	}
	for _, en := range ents {
		if en.owner != dead {
			out = append(out, en.w)
		}
	}
	m.addHops(crossHops(len(reps) + len(extra)))
	slices.Sort(out)
	return out
}

// KHop runs a level-synchronous BFS from v to depth k on the caller's
// goroutine. Each level the frontier is routed to every shard holding a copy
// of a frontier vertex, and each touched shard scans its live adjacency
// (base minus the edges the overlay shadows, plus the overlay's live edges
// on it) for the frontier vertices routed to it. The routing is where a
// partitioning's replication factor becomes serving cost: every mirror of a
// frontier vertex is one extra shard fetch, every touched shard one scan
// task. A base copy is routed as its slot on the shard, read off the replica
// index, so the scan goes straight to its adjacency; a frontier vertex with
// overlay entries has them resolved once, at routing, and each of its
// shards reads them from there.
//
// A level is found in two steps. The scans OR every neighbour they reach
// into a dense level bitset, visited or not, with no test per edge; then
// appendLevel settles the level once per touched word: the marks not yet
// visited are the new vertices, read out in id order without a sort. The
// level and visited bitsets cost 2 × |V|/8 bytes per concurrently running
// KHop; a sync.Pool keeps them between queries, so a query allocates only
// its result.
func (e *Epoch) KHop(ctx context.Context, v graph.Vertex, k int) (*KHopResult, error) {
	m := &e.base.metrics
	defer m.end(qKHop, m.begin(qKHop))
	if v >= e.numVertices {
		return nil, e.errVertex(v)
	}
	if k < 0 {
		return nil, fmt.Errorf("store: negative hop count %d", k)
	}
	res := &KHopResult{
		Source:     v,
		K:          k,
		Vertices:   []graph.Vertex{v},
		Depths:     []int32{0},
		LevelSizes: []int64{1},
	}
	numShards := len(e.base.shards)
	sc := getKHopScratch(e.numVertices, numShards)
	defer sc.release(res)
	sc.visited[v/64] |= 1 << (v % 64)
	slotsOn, routesOn := sc.slots[:numShards], sc.routes[:numShards]

	// res.Vertices[start:] is the frontier: the level reached last.
	for depth, start := int32(1), 0; int(depth) <= k && start < len(res.Vertices); depth++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Route the frontier: every replica shard of a frontier vertex
		// must scan its share of the adjacency, since each shard holds a
		// disjoint subset of the incident edges.
		for s := range slotsOn {
			slotsOn[s], routesOn[s] = slotsOn[s][:0], routesOn[s][:0]
		}
		sc.ents = sc.ents[:0]
		// The level's marks fall in words lo..hi of the level bitset; none
		// when lo > hi.
		lo, hi := len(sc.level), -1
		for _, u := range res.Vertices[start:] {
			reps, slots := e.baseReplicas(u)
			routed := false
			if e.ov != nil {
				routed, lo, hi = e.routeOverlay(sc, u, reps, slots, res, lo, hi)
			}
			if !routed {
				for i, s := range reps {
					slotsOn[s] = append(slotsOn[s], slots[i])
				}
				res.CrossShardHops += crossHops(len(reps))
			}
		}
		for s := range slotsOn {
			if len(slotsOn[s]) == 0 && len(routesOn[s]) == 0 {
				continue
			}
			res.ShardTasks++
			m.touchShard(s)
			lo, hi = e.scanShard(s, slotsOn[s], routesOn[s], sc.ents, sc.level, lo, hi)
		}
		start = len(res.Vertices)
		sc.appendLevel(res, depth, lo, hi)
		// Yield once per level. Two closed-loop clients on two Ps would
		// otherwise run query after query without entering the scheduler,
		// and a GC cycle's mark phase then waits out the 10ms preemption
		// quantum to reach them: the cycle stretches and the heap peaks
		// higher while it runs.
		runtime.Gosched()
	}
	m.addHops(res.CrossShardHops)
	m.addTasks(res.ShardTasks)
	return res, nil
}

// route is one frontier vertex with overlay entries, routed to a shard
// holding a base copy of it: its slot there and its entries, ents[lo:hi] of
// the level's scratch. A route with noSlot only makes the shard a task: the
// overlay alone holds the vertex there.
type route struct {
	slot   uint32
	lo, hi int32
}

// routeOverlay routes frontier vertex u, held at slots on its base replicas
// reps, when the overlay has entries for it, and reports whether it did. The
// entries are resolved once: routing marks u's live overlay edges in level
// itself, whatever shard holds them, and each base replica gets a route to
// the entries, which shadow part of its adjacency. A shard where only the
// overlay holds u is a task with nothing left to scan.
func (e *Epoch) routeOverlay(sc *khopScratch, u graph.Vertex, reps []int32, slots []uint32, res *KHopResult, lo, hi int) (bool, int, int) {
	ents := e.ov.entriesOf(u, &sc.entries)
	if len(ents) == 0 {
		return false, lo, hi
	}
	for _, en := range ents {
		if en.owner != dead {
			lo, hi = mark(sc.level, en.w, lo, hi)
		}
	}
	from := int32(len(sc.ents))
	if len(reps) > 0 {
		sc.ents = append(sc.ents, ents...)
	}
	to := int32(len(sc.ents))
	for i, s := range reps {
		sc.routes[s] = append(sc.routes[s], route{slots[i], from, to})
	}
	sc.extra = overlayShards(sc.extra[:0], ents, reps)
	for _, s := range sc.extra {
		sc.routes[s] = append(sc.routes[s], route{slot: noSlot})
	}
	res.CrossShardHops += crossHops(len(reps) + len(sc.extra))
	return true, lo, hi
}

// scanShard marks in level every base neighbour on shard s of the frontier
// that is live: the base adjacency at each routed slot read in place, and
// at each route, the base adjacency less the edges its overlay entries
// shadow (routing marked the overlay's own live edges). It is Neighbors
// without the copy into a buffer. Marks are not tested against visited, and
// the word range [lo, hi] comes back widened to cover every one of them.
func (e *Epoch) scanShard(s int, slots []uint32, routes []route, ents []entry, level []uint64, lo, hi int) (int, int) {
	sh := e.base.shards[s]
	for _, l := range slots {
		lo, hi = markAll(level, sh.neighborsOf(l), lo, hi)
	}
	for _, rt := range routes {
		if rt.slot == noSlot {
			continue
		}
		own, j := ents[rt.lo:rt.hi], 0
		for _, w := range sh.neighborsOf(rt.slot) {
			for j < len(own) && own[j].w < w {
				j++
			}
			if j == len(own) || own[j].w != w {
				lo, hi = mark(level, w, lo, hi)
			}
		}
	}
	return lo, hi
}

// mark ORs w's bit into level and widens [lo, hi] to w's word. It does not
// test whether w was reached before, so it has no branch to mispredict.
func mark(level []uint64, w graph.Vertex, lo, hi int) (int, int) {
	i := int(w / 64)
	level[i] |= 1 << (w % 64)
	return min(lo, i), max(hi, i)
}

// markAll marks every vertex of ws.
func markAll(level []uint64, ws []graph.Vertex, lo, hi int) (int, int) {
	for _, w := range ws {
		lo, hi = mark(level, w, lo, hi)
	}
	return lo, hi
}

// khopScratch is one KHop's working memory: the visited and level bitsets
// over vertex ids, and the frontier routed to each shard — base copies
// without overlay entries as slots, the rest as routes to their entries in
// ents. While a level is scanned, level holds every mark of the level,
// visited or not, until appendLevel settles it. Between queries, in
// khopPool, every bit of both bitsets is clear.
type khopScratch struct {
	visited, level []uint64
	slots          [][]uint32
	routes         [][]route
	ents           []entry // the level's resolved overlay entries
	entries        entryScratch
	extra          []int32 // one frontier vertex's overlay-only shards
}

var khopPool = sync.Pool{New: func() any { return new(khopScratch) }}

// getKHopScratch returns clean scratch for vertex ids below numVertices and
// numShards shards. Epochs of every size share the pool: scratch grows to
// the largest epoch it has served.
func getKHopScratch(numVertices uint32, numShards int) *khopScratch {
	sc := khopPool.Get().(*khopScratch)
	words := (int(numVertices) + 63) / 64
	if cap(sc.visited) < words {
		sc.visited = make([]uint64, words)
		sc.level = make([]uint64, words)
	}
	sc.visited, sc.level = sc.visited[:words], sc.level[:words]
	if len(sc.slots) < numShards {
		sc.slots = make([][]uint32, numShards)
		sc.routes = make([][]route, numShards)
	}
	return sc
}

// release clears the visited bits, which are exactly those of res's
// vertices, and returns sc to the pool. It runs on every exit from KHop, a
// cancelled one included.
func (sc *khopScratch) release(res *KHopResult) {
	for _, w := range res.Vertices {
		sc.visited[w/64] = 0
	}
	khopPool.Put(sc)
}

// appendLevel settles the level marked in words lo..hi of the level bitset.
// Each word's new vertices are its marks not yet visited, and they join
// visited. They are appended to res at the given depth in id order, with
// Vertices and Depths grown once to their exact size. Every word of the
// range is left clear, whether or not it reached anything new.
func (sc *khopScratch) appendLevel(res *KHopResult, depth int32, lo, hi int) {
	if lo > hi {
		return
	}
	level, visited := sc.level[lo:hi+1], sc.visited[lo:hi+1]
	n := 0
	for i, word := range level {
		fresh := word &^ visited[i]
		visited[i] |= fresh
		level[i] = fresh
		n += bits.OnesCount64(fresh)
	}
	if n == 0 {
		return
	}
	vs := append(make([]graph.Vertex, 0, len(res.Vertices)+n), res.Vertices...)
	ds := append(make([]int32, 0, len(res.Depths)+n), res.Depths...)
	for i, word := range level {
		for ; word != 0; word &= word - 1 {
			vs = append(vs, graph.Vertex((lo+i)*64+bits.TrailingZeros64(word)))
			ds = append(ds, depth)
		}
		level[i] = 0
	}
	res.Vertices, res.Depths = vs, ds
	res.LevelSizes = append(res.LevelSizes, int64(n))
}

// ShardEdgesPacked returns shard s's live canonical edge list, sorted — the
// compaction input. Base edges appear twice in the shard CSR (once per
// endpoint), so only the u < w direction is emitted, in ascending key order.
// With an overlay, its canonical entries merge in as they come, each
// shadowing the base copy of its edge and adding the edge when it lives on
// s; the first call flattens them into one run that every later call on the
// epoch, for any shard, reads. The scan yields at the first vertex boundary
// after each compactYieldStride base edges.
func (e *Epoch) ShardEdgesPacked(s int) []uint64 {
	sh := e.base.shards[s]
	out := make([]uint64, 0, e.ShardEdges(s))
	ov := &run{}
	if e.ov != nil {
		e.canonOnce.Do(func() { e.canon = e.ov.canonical() })
		ov = e.canon
	}
	j := 0
	for l, u := range sh.verts {
		if l > 0 && sh.off[l]/compactYieldStride != sh.off[l-1]/compactYieldStride {
			runtime.Gosched()
		}
		for _, w := range sh.tgt[sh.off[l]:sh.off[l+1]] {
			if u >= w {
				continue
			}
			k := graph.PackEdge(u, w)
			for ; j < len(ov.keys) && ov.keys[j] < k; j++ {
				if ov.owner[j] == int32(s) {
					out = append(out, ov.keys[j])
				}
			}
			if j == len(ov.keys) || ov.keys[j] != k {
				out = append(out, k)
			}
		}
	}
	for ; j < len(ov.keys); j++ {
		if ov.owner[j] == int32(s) {
			out = append(out, ov.keys[j])
		}
	}
	return out
}
