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
// and retractions accumulate in a small mutable Delta owned by the writer;
// publishing freezes the delta into an Epoch — an immutable (base, delta)
// pair readers resolve queries against. A Store's own queries run on an
// Epoch with no delta, so Neighbors and KHop exist once, here, and
// every one of them counts into the base's Metrics. Readers pin an epoch
// (one atomic pointer load in the live layer) and never observe a partial
// update; a background compactor folds the delta into a fresh base with
// BuildFromShards and publishes the next epoch.

// BuildFromShards materializes per-shard canonical packed edge lists into a
// Store. It is the one CSR builder: BuildPartitioning buckets a graph's
// edges by owner into it, compaction folds an epoch through it, and
// ReadDir rebuilds every persisted shard through it. shardEdges[s] holds
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

// Delta is the mutable overlay of edge insertions and deletions a live
// writer accumulates between epochs. It is not safe for concurrent use; the
// live layer serializes writers and freezes a snapshot into each published
// Epoch. Deletions may only name base edges — retracting an overlay
// insertion must go through RemoveAdd instead, so an (add, del) pair of the
// same edge cancels exactly.
type Delta struct {
	adds []map[graph.Vertex][]graph.Vertex // per shard: v -> appended neighbors
	dels []map[uint64]struct{}             // per shard: deleted base edges, packed
	addN []int64                           // per-shard inserted edge counts
	delN []int64                           // per-shard deleted edge counts
	maxV graph.Vertex                      // highest vertex id named by an add, +1
}

// NewDelta returns an empty overlay for numShards shards.
func NewDelta(numShards int) *Delta {
	d := &Delta{
		adds: make([]map[graph.Vertex][]graph.Vertex, numShards),
		dels: make([]map[uint64]struct{}, numShards),
		addN: make([]int64, numShards),
		delN: make([]int64, numShards),
	}
	for s := range d.adds {
		d.adds[s] = make(map[graph.Vertex][]graph.Vertex)
		d.dels[s] = make(map[uint64]struct{})
	}
	return d
}

// AddEdge records the insertion of edge (u,v) on shard s.
func (d *Delta) AddEdge(s int, u, v graph.Vertex) {
	d.adds[s][u] = append(d.adds[s][u], v)
	d.adds[s][v] = append(d.adds[s][v], u)
	d.addN[s]++
	if u >= d.maxV {
		d.maxV = u + 1
	}
	if v >= d.maxV {
		d.maxV = v + 1
	}
}

// RemoveAdd retracts a prior AddEdge of (u,v) on shard s, returning false
// if no such overlay insertion exists (the caller then records a base
// deletion instead).
func (d *Delta) RemoveAdd(s int, u, v graph.Vertex) bool {
	if !removeOne(d.adds[s], u, v) {
		return false
	}
	removeOne(d.adds[s], v, u)
	d.addN[s]--
	return true
}

func removeOne(adj map[graph.Vertex][]graph.Vertex, u, v graph.Vertex) bool {
	ns := adj[u]
	for i, w := range ns {
		if w == v {
			ns[i] = ns[len(ns)-1]
			if len(ns) == 1 {
				delete(adj, u)
			} else {
				adj[u] = ns[:len(ns)-1]
			}
			return true
		}
	}
	return false
}

// DelEdge records the deletion of base edge (u,v) from shard s.
func (d *Delta) DelEdge(s int, u, v graph.Vertex) {
	d.dels[s][graph.PackEdge(u, v)] = struct{}{}
	d.delN[s]++
}

// HasDel reports whether base edge (u,v) is already deleted on shard s.
func (d *Delta) HasDel(s int, u, v graph.Vertex) bool {
	_, ok := d.dels[s][graph.PackEdge(u, v)]
	return ok
}

// HasAdd reports whether the overlay holds an insertion of (u,v) on shard s.
func (d *Delta) HasAdd(s int, u, v graph.Vertex) bool {
	for _, w := range d.adds[s][u] {
		if w == v {
			return true
		}
	}
	return false
}

// AddedEdges returns the total overlay insertions across shards.
func (d *Delta) AddedEdges() int64 {
	var t int64
	for _, n := range d.addN {
		t += n
	}
	return t
}

// DeletedEdges returns the total overlay deletions across shards.
func (d *Delta) DeletedEdges() int64 {
	var t int64
	for _, n := range d.delN {
		t += n
	}
	return t
}

// Clone deep-copies the overlay — the publish path, so readers of the
// frozen epoch never race the writer's continuing mutations.
func (d *Delta) Clone() *Delta {
	c := &Delta{
		adds: make([]map[graph.Vertex][]graph.Vertex, len(d.adds)),
		dels: make([]map[uint64]struct{}, len(d.dels)),
		addN: slices.Clone(d.addN),
		delN: slices.Clone(d.delN),
		maxV: d.maxV,
	}
	for s := range d.adds {
		c.adds[s] = make(map[graph.Vertex][]graph.Vertex, len(d.adds[s]))
		for v, ns := range d.adds[s] {
			c.adds[s][v] = slices.Clone(ns)
		}
		c.dels[s] = make(map[uint64]struct{}, len(d.dels[s]))
		for k := range d.dels[s] {
			c.dels[s][k] = struct{}{}
		}
	}
	return c
}

// Epoch is one immutable snapshot of the graph: a base Store plus a frozen
// Delta (nil for a compacted epoch, and for the view every Store queries
// through). Safe for concurrent use; queries resolve against
// base-minus-deletions plus insertions and count into the base's Metrics.
type Epoch struct {
	base        *Store
	delta       *Delta
	seq         uint64
	numVertices uint32
}

// NewEpoch freezes (base, delta) into snapshot number seq. delta may be
// nil; the caller must not mutate it afterwards (clone first).
func NewEpoch(base *Store, delta *Delta, seq uint64) *Epoch {
	n := base.numVertices
	if delta != nil && uint32(delta.maxV) > n {
		n = uint32(delta.maxV)
	}
	return &Epoch{base: base, delta: delta, seq: seq, numVertices: n}
}

// Seq returns the epoch's publish sequence number.
func (e *Epoch) Seq() uint64 { return e.seq }

// NumVertices returns |V| as of this epoch (base, extended by any overlay
// insertions naming new vertex ids).
func (e *Epoch) NumVertices() uint32 { return e.numVertices }

// NumShards returns the shard count.
func (e *Epoch) NumShards() int { return len(e.base.shards) }

// ShardEdges returns the live edge count of shard s.
func (e *Epoch) ShardEdges(s int) int64 {
	n := e.base.shards[s].edges
	if e.delta != nil {
		n += e.delta.addN[s] - e.delta.delN[s]
	}
	return n
}

// OverlayEdges returns the overlay's (insertions, deletions) totals — the
// compaction debt of this epoch.
func (e *Epoch) OverlayEdges() (added, deleted int64) {
	if e.delta == nil {
		return 0, 0
	}
	return e.delta.AddedEdges(), e.delta.DeletedEdges()
}

// Replicas returns the shards holding a live copy of v, sorted by shard
// id. Base replica lists are not shrunk by overlay deletions until
// compaction — a fully-deleted replica still answers (with an empty
// adjacency), it just costs a fetch; compaction removes it.
func (e *Epoch) Replicas(v graph.Vertex) []int32 {
	base, _ := e.baseReplicas(v)
	extra := e.overlayShards(nil, v, base)
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

// overlayShards appends to dst the shards where only the overlay holds v:
// those with insertions at v that are not among v's base replicas.
func (e *Epoch) overlayShards(dst []int32, v graph.Vertex, base []int32) []int32 {
	if e.delta == nil {
		return dst
	}
	for s, adds := range e.delta.adds {
		if len(adds[v]) == 0 {
			continue
		}
		if _, found := slices.BinarySearch(base, int32(s)); !found {
			dst = append(dst, int32(s))
		}
	}
	return dst
}

// noSlot stands for a shard that holds no base copy of the vertex: only
// overlay insertions.
const noSlot = ^uint32(0)

// shardNeighborsInto appends v's live neighbors on shard s to out: the base
// adjacency at slot l minus deleted edges, plus overlay insertions.
func (e *Epoch) shardNeighborsInto(s int, l uint32, v graph.Vertex, out []graph.Vertex) []graph.Vertex {
	if l != noSlot {
		base := e.base.shards[s].neighborsOf(l)
		if e.delta == nil || len(e.delta.dels[s]) == 0 {
			out = append(out, base...)
		} else {
			for _, w := range base {
				if _, dead := e.delta.dels[s][graph.PackEdge(v, w)]; !dead {
					out = append(out, w)
				}
			}
		}
	}
	if e.delta != nil {
		out = append(out, e.delta.adds[s][v]...)
	}
	return out
}

// ShardHasEdge reports whether shard s holds the live edge (u,v): inserted
// in the overlay, or present in the base and not deleted. Cost is one scan
// of u's local base adjacency, so callers pass the lower-degree endpoint
// as u.
func (e *Epoch) ShardHasEdge(s int, u, v graph.Vertex) bool {
	if e.delta != nil && e.delta.HasAdd(s, u, v) {
		return true
	}
	if u >= e.base.numVertices {
		return false
	}
	reps, slots := e.base.replicas.Of(u)
	i, ok := slices.BinarySearch(reps, int32(s))
	if !ok {
		return false
	}
	for _, w := range e.base.shards[s].neighborsOf(slots[i]) {
		if w == v {
			return e.delta == nil || !e.delta.HasDel(s, u, v)
		}
	}
	return false
}

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
	var out []graph.Vertex
	reps, slots := e.baseReplicas(v)
	if e.delta == nil {
		// One allocation of the exact size; an overlay's live degree
		// would cost a scan of the deletions, so overlays grow as they go.
		var n int64
		for i, s := range reps {
			n += e.base.shards[s].degreeOf(slots[i])
		}
		out = slices.Grow(out, int(n))
	}
	for i, s := range reps {
		m.touchShard(int(s))
		out = e.shardNeighborsInto(int(s), slots[i], v, out)
	}
	extra := e.overlayShards(nil, v, reps)
	for _, s := range extra {
		m.touchShard(int(s))
		out = e.shardNeighborsInto(int(s), noSlot, v, out)
	}
	m.addHops(crossHops(len(reps) + len(extra)))
	slices.Sort(out)
	return out, nil
}

// KHop runs a level-synchronous BFS from v to depth k on the caller's
// goroutine. Each level the frontier is routed to every shard holding a copy
// of a frontier vertex, and each touched shard scans its live adjacency
// (base through the deletion filter, plus overlay insertions) for the
// frontier vertices routed to it. The routing is where a partitioning's
// replication factor becomes serving cost: every mirror of a frontier vertex
// is one extra shard fetch, every touched shard one scan task. A base copy
// is routed as its slot on the shard, read off the replica index, so the
// scan goes straight to its adjacency.
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
	slotsOn, overlayOn := sc.slots[:numShards], sc.overlay[:numShards]

	// res.Vertices[start:] is the frontier: the level reached last.
	for depth, start := int32(1), 0; int(depth) <= k && start < len(res.Vertices); depth++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Route the frontier: every replica shard of a frontier vertex
		// must scan its share of the adjacency, since each shard holds a
		// disjoint subset of the incident edges.
		for s := range slotsOn {
			slotsOn[s], overlayOn[s] = slotsOn[s][:0], overlayOn[s][:0]
		}
		for _, u := range res.Vertices[start:] {
			reps, slots := e.baseReplicas(u)
			for i, s := range reps {
				slotsOn[s] = append(slotsOn[s], slots[i])
			}
			sc.extra = e.overlayShards(sc.extra[:0], u, reps)
			for _, s := range sc.extra {
				overlayOn[s] = append(overlayOn[s], u)
			}
			res.CrossShardHops += crossHops(len(reps) + len(sc.extra))
		}
		// The scans mark words lo..hi of the level bitset; none when lo > hi.
		lo, hi := len(sc.level), -1
		for s := range slotsOn {
			if len(slotsOn[s]) == 0 && len(overlayOn[s]) == 0 {
				continue
			}
			res.ShardTasks++
			m.touchShard(s)
			lo, hi = e.scanShard(s, slotsOn[s], overlayOn[s], sc.level, lo, hi)
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

// scanShard marks in level every live neighbour on shard s of the frontier:
// the base adjacency at each routed slot read in place, minus deleted edges,
// plus overlay insertions, and the insertions of the frontier vertices us
// that only the overlay holds on s. It is shardNeighborsInto without the copy
// into a buffer. Marks are not tested against visited, and the word range
// [lo, hi] comes back widened to cover every one of them.
func (e *Epoch) scanShard(s int, slots []uint32, us []graph.Vertex, level []uint64, lo, hi int) (int, int) {
	sh := e.base.shards[s]
	if e.delta == nil {
		for _, l := range slots {
			lo, hi = markAll(level, sh.neighborsOf(l), lo, hi)
		}
		return lo, hi
	}
	dels, adds := e.delta.dels[s], e.delta.adds[s]
	for _, l := range slots {
		u := sh.verts[l]
		if len(dels) == 0 {
			lo, hi = markAll(level, sh.neighborsOf(l), lo, hi)
		} else {
			for _, w := range sh.neighborsOf(l) {
				if _, dead := dels[graph.PackEdge(u, w)]; !dead {
					lo, hi = mark(level, w, lo, hi)
				}
			}
		}
		lo, hi = markAll(level, adds[u], lo, hi)
	}
	for _, u := range us {
		lo, hi = markAll(level, adds[u], lo, hi)
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
// over vertex ids, and the frontier routed to each shard — base copies as
// slots, overlay-only copies as ids. While a level is scanned, level holds
// every mark of the level, visited or not, until appendLevel settles it.
// Between queries, in khopPool, every bit of both bitsets is clear.
type khopScratch struct {
	visited, level []uint64
	slots          [][]uint32
	overlay        [][]graph.Vertex
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
		sc.overlay = make([][]graph.Vertex, numShards)
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
// endpoint), so only the u < w direction is emitted. The scan yields at the
// first vertex boundary after each compactYieldStride base edges.
func (e *Epoch) ShardEdgesPacked(s int) []uint64 {
	sh := e.base.shards[s]
	out := make([]uint64, 0, e.ShardEdges(s))
	for l, u := range sh.verts {
		if l > 0 && sh.off[l]/compactYieldStride != sh.off[l-1]/compactYieldStride {
			runtime.Gosched()
		}
		for _, w := range sh.tgt[sh.off[l]:sh.off[l+1]] {
			if u >= w {
				continue
			}
			k := graph.PackEdge(u, w)
			if e.delta != nil {
				if _, dead := e.delta.dels[s][k]; dead {
					continue
				}
			}
			out = append(out, k)
		}
	}
	if e.delta != nil {
		for v, ns := range e.delta.adds[s] {
			for _, w := range ns {
				if v < w {
					out = append(out, graph.PackEdge(v, w))
				}
			}
		}
	}
	slices.Sort(out)
	return out
}
