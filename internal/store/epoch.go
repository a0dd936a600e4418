package store

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"github.com/distributedne/dne/internal/dsa"
	"github.com/distributedne/dne/internal/graph"
)

// compactYieldStride bounds how long compaction-side loops run between
// voluntary yields. Compaction shares the scheduler with live queries that
// pin epochs instead of locking; on a machine with few cores a compactor
// that only gets preempted every ~10ms would add that quantum to query tail
// latency, so the heavy loops yield every stride iterations (~1ms of work)
// to keep foreground tails near steady state.
const compactYieldStride = 1 << 14

// yieldCounter calls runtime.Gosched every compactYieldStride ticks.
type yieldCounter int

func (y *yieldCounter) tick() {
	if *y++; *y%compactYieldStride == 0 {
		runtime.Gosched()
	}
}

// Epoch layer: the one read path. A Store is the immutable base; arrivals
// and retractions accumulate in a small mutable Delta owned by the writer;
// publishing freezes the delta into an Epoch — an immutable (base, delta)
// pair readers resolve queries against. A Store's own queries run on an
// Epoch with no delta, so Degree, Neighbors and KHop exist once, here, and
// every one of them counts into the base's Metrics. Readers pin an epoch
// (one atomic pointer load in the live layer) and never observe a partial
// update; a background compactor folds the delta into a fresh base with
// BuildFromShards and publishes the next epoch.

// BuildFromShards materializes per-shard canonical packed edge lists into a
// Store. It is the one CSR builder: BuildPartitioning buckets a graph's
// edges by owner into it, and compaction folds an epoch through it. shardEdges[s] holds shard s's
// edges as PackEdge keys (u < v); duplicates within a shard and endpoints
// ≥ numVertices are rejected.
func BuildFromShards(numVertices uint32, shardEdges [][]uint64) (*Store, error) {
	numShards := len(shardEdges)
	if numShards == 0 {
		return nil, fmt.Errorf("store: no shards")
	}
	st := &Store{
		numVertices: numVertices,
		shards:      make([]*shard, numShards),
		master:      make([]int32, numVertices),
	}
	var yield yieldCounter
	for s, packed := range shardEdges {
		deg := make(map[graph.Vertex]int64)
		var prev uint64
		for i, k := range packed {
			u, v := graph.Vertex(k>>32), graph.Vertex(k)
			if u >= v {
				return nil, fmt.Errorf("store: shard %d edge %d (%d,%d) not canonical", s, i, u, v)
			}
			if v >= numVertices {
				return nil, fmt.Errorf("store: shard %d edge %d endpoint %d out of range [0,%d)", s, i, v, numVertices)
			}
			if i > 0 && k <= prev {
				return nil, fmt.Errorf("store: shard %d edges not strictly increasing at %d", s, i)
			}
			prev = k
			deg[u]++
			deg[v]++
			yield.tick()
		}
		sh := &shard{id: s, index: make(map[graph.Vertex]uint32, len(deg))}
		sh.verts = make([]graph.Vertex, 0, len(deg))
		for v := range deg {
			sh.verts = append(sh.verts, v)
		}
		dsa.SortU32(sh.verts)
		sh.off = make([]int64, len(sh.verts)+1)
		for l, v := range sh.verts {
			sh.index[v] = uint32(l)
			sh.off[l+1] = sh.off[l] + deg[v]
		}
		sh.tgt = make([]graph.Vertex, sh.off[len(sh.verts)])
		cursor := make([]int64, len(sh.verts))
		for _, k := range packed {
			u, v := graph.Vertex(k>>32), graph.Vertex(k)
			lu, lv := sh.index[u], sh.index[v]
			sh.tgt[sh.off[lu]+cursor[lu]] = v
			cursor[lu]++
			sh.tgt[sh.off[lv]+cursor[lv]] = u
			cursor[lv]++
			yield.tick()
		}
		sh.edges = int64(len(packed))
		st.numEdges += sh.edges
		st.shards[s] = sh
	}
	st.buildRouting()
	return st.serve(), nil
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

// Base returns the underlying immutable store.
func (e *Epoch) Base() *Store { return e.base }

// NumVertices returns |V| as of this epoch (base, extended by any overlay
// insertions naming new vertex ids).
func (e *Epoch) NumVertices() uint32 { return e.numVertices }

// NumShards returns the shard count.
func (e *Epoch) NumShards() int { return len(e.base.shards) }

// NumEdges returns the live edge count: base + insertions − deletions.
func (e *Epoch) NumEdges() int64 {
	n := e.base.numEdges
	if e.delta != nil {
		n += e.delta.AddedEdges() - e.delta.DeletedEdges()
	}
	return n
}

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
	var base []int32
	if v < e.base.numVertices {
		base = e.base.Replicas(v)
	}
	if e.delta == nil {
		return base
	}
	var extra []int32
	for s := range e.delta.adds {
		if len(e.delta.adds[s][v]) == 0 {
			continue
		}
		if _, found := slices.BinarySearch(base, int32(s)); !found {
			extra = append(extra, int32(s))
		}
	}
	if len(extra) == 0 {
		return base
	}
	merged := append(slices.Clone(base), extra...)
	slices.Sort(merged)
	return merged
}

// Master returns the shard owning v's primary copy. Vertices minted by the
// overlay (beyond the base's |V|) are hash-routed until a compaction folds
// them into the base routing table.
func (e *Epoch) Master(v graph.Vertex) (int32, error) {
	if v >= e.numVertices {
		return 0, e.errVertex(v)
	}
	if v < e.base.numVertices {
		return e.base.master[v], nil
	}
	return int32(v % uint32(len(e.base.shards))), nil
}

// shardNeighborsInto appends v's live neighbors on shard s to out: the base
// adjacency minus deleted edges, plus overlay insertions.
func (e *Epoch) shardNeighborsInto(s int, v graph.Vertex, out []graph.Vertex) []graph.Vertex {
	if v < e.base.numVertices {
		base := e.base.shards[s].neighborsOf(v)
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
	for _, w := range e.base.shards[s].neighborsOf(u) {
		if w == v {
			return e.delta == nil || !e.delta.HasDel(s, u, v)
		}
	}
	return false
}

// shardDegree returns v's live degree on shard s: its base degree minus
// deleted edges, plus overlay insertions.
func (e *Epoch) shardDegree(s int, v graph.Vertex) int64 {
	var d int64
	if v < e.base.numVertices {
		d = e.base.shards[s].degreeOf(v)
		if e.delta != nil && len(e.delta.dels[s]) > 0 {
			for _, w := range e.base.shards[s].neighborsOf(v) {
				if _, dead := e.delta.dels[s][graph.PackEdge(v, w)]; dead {
					d--
				}
			}
		}
	}
	if e.delta != nil {
		d += int64(len(e.delta.adds[s][v]))
	}
	return d
}

// errVertex reports v outside the epoch's vertex range.
func (e *Epoch) errVertex(v graph.Vertex) error {
	return fmt.Errorf("store: vertex %d out of range [0,%d)", v, e.numVertices)
}

// Degree returns v's live global degree by summing its degree on every
// replica shard. Touching each replica beyond the first counts as a
// cross-shard hop.
func (e *Epoch) Degree(v graph.Vertex) (int64, error) {
	m := &e.base.metrics
	defer m.end(qDegree, m.begin(qDegree))
	if v >= e.numVertices {
		return 0, e.errVertex(v)
	}
	var d int64
	reps := e.Replicas(v)
	for _, s := range reps {
		m.touchShard(int(s))
		d += e.shardDegree(int(s), v)
	}
	m.addHops(crossHops(len(reps)))
	return d, nil
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
	reps := e.Replicas(v)
	if e.delta == nil {
		// One allocation of the exact size; an overlay's live degree
		// would cost a scan of the deletions, so overlays grow as they go.
		var n int64
		for _, s := range reps {
			n += e.base.shards[s].degreeOf(v)
		}
		out = slices.Grow(out, int(n))
	}
	for _, s := range reps {
		m.touchShard(int(s))
		out = e.shardNeighborsInto(int(s), v, out)
	}
	m.addHops(crossHops(len(reps)))
	slices.Sort(out)
	return out, nil
}

// KHop runs a level-synchronous BFS from v to depth k on the caller's
// goroutine. Each level the frontier is routed to every shard holding a copy
// of a frontier vertex, and each touched shard scans its live adjacency
// (base through the deletion filter, plus overlay insertions) for the
// frontier vertices routed to it. The routing is where a partitioning's
// replication factor becomes serving cost: every mirror of a frontier vertex
// is one extra shard fetch, every touched shard one scan task.
//
// Newly reached vertices are marked in a dense level bitset beside the
// visited one, so each level is read out in id order without a sort. The two
// bitsets cost 2 × |V|/8 bytes per concurrently running KHop; a sync.Pool
// keeps them between queries, so a query allocates only its result.
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
	perShard := sc.perShard[:numShards]

	// res.Vertices[start:] is the frontier: the level reached last.
	for depth, start := int32(1), 0; int(depth) <= k && start < len(res.Vertices); depth++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Route the frontier: every replica shard of a frontier vertex
		// must scan its share of the adjacency, since each shard holds a
		// disjoint subset of the incident edges.
		for s := range perShard {
			perShard[s] = perShard[s][:0]
		}
		for _, u := range res.Vertices[start:] {
			reps := e.Replicas(u)
			for _, s := range reps {
				perShard[s] = append(perShard[s], u)
			}
			res.CrossShardHops += crossHops(len(reps))
		}
		for s, us := range perShard {
			if len(us) == 0 {
				continue
			}
			res.ShardTasks++
			m.touchShard(s)
			e.scanShard(s, us, sc)
		}
		start = len(res.Vertices)
		sc.appendLevel(res, depth)
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

// scanShard marks every live neighbour on shard s of the frontier vertices
// us: the base adjacency read in place, minus deleted edges, plus overlay
// insertions. It is shardNeighborsInto without the copy into a buffer.
func (e *Epoch) scanShard(s int, us []graph.Vertex, sc *khopScratch) {
	sh := e.base.shards[s]
	var dels map[uint64]struct{}
	var adds map[graph.Vertex][]graph.Vertex
	if e.delta != nil {
		dels, adds = e.delta.dels[s], e.delta.adds[s]
	}
	for _, u := range us {
		for _, w := range sh.neighborsOf(u) {
			if len(dels) > 0 {
				if _, dead := dels[graph.PackEdge(u, w)]; dead {
					continue
				}
			}
			sc.mark(w)
		}
		for _, w := range adds[u] {
			sc.mark(w)
		}
	}
}

// khopScratch is one KHop's working memory: the visited and level bitsets
// over vertex ids and the frontier routed to each shard. Between queries,
// in khopPool, every bit of both bitsets is clear.
type khopScratch struct {
	visited, level []uint64
	perShard       [][]graph.Vertex
	lo, hi         int // word range holding level's bits; empty when lo > hi
	n              int // vertices in level
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
	if len(sc.perShard) < numShards {
		sc.perShard = make([][]graph.Vertex, numShards)
	}
	sc.lo, sc.hi, sc.n = words, -1, 0
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

// mark records w as reached: the first time, it joins the current level.
func (sc *khopScratch) mark(w graph.Vertex) {
	i, bit := int(w/64), uint64(1)<<(w%64)
	if sc.visited[i]&bit != 0 {
		return
	}
	sc.visited[i] |= bit
	sc.level[i] |= bit
	sc.lo, sc.hi = min(sc.lo, i), max(sc.hi, i)
	sc.n++
}

// appendLevel appends the current level to res at the given depth, in id
// order, growing Vertices and Depths once to their exact size, and clears
// the level bitset for the next one.
func (sc *khopScratch) appendLevel(res *KHopResult, depth int32) {
	if sc.n == 0 {
		return
	}
	vs := append(make([]graph.Vertex, 0, len(res.Vertices)+sc.n), res.Vertices...)
	ds := append(make([]int32, 0, len(res.Depths)+sc.n), res.Depths...)
	for i := sc.lo; i <= sc.hi; i++ {
		for word := sc.level[i]; word != 0; word &= word - 1 {
			vs = append(vs, graph.Vertex(i*64+bits.TrailingZeros64(word)))
			ds = append(ds, depth)
		}
		sc.level[i] = 0
	}
	res.Vertices, res.Depths = vs, ds
	res.LevelSizes = append(res.LevelSizes, int64(sc.n))
	sc.lo, sc.hi, sc.n = len(sc.level), -1, 0
}

// ShardEdgesPacked returns shard s's live canonical edge list, sorted — the
// compaction input. Base edges appear twice in the shard CSR (once per
// endpoint), so only the u < w direction is emitted.
func (e *Epoch) ShardEdgesPacked(s int) []uint64 {
	sh := e.base.shards[s]
	out := make([]uint64, 0, e.ShardEdges(s))
	var yield yieldCounter
	for l, u := range sh.verts {
		for _, w := range sh.tgt[sh.off[l]:sh.off[l+1]] {
			yield.tick()
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

// Compact folds the epoch into a fresh base Store with an empty overlay.
// The result serves identical queries; replica lists shed fully-deleted
// copies and overlay vertices join the routing table.
func (e *Epoch) Compact() (*Store, error) {
	packed := make([][]uint64, len(e.base.shards))
	for s := range packed {
		packed[s] = e.ShardEdgesPacked(s)
	}
	return BuildFromShards(e.numVertices, packed)
}
