// Package store is the online serving layer over an edge partitioning: it
// materializes a partitioning into immutable per-shard CSR stores plus a
// replica index, and serves concurrent point and traversal queries across
// the shards.
//
// The replica index (partition.ReplicaIndex) lists, for every vertex, the
// shards holding a copy and the vertex's slot in each shard's CSR. Every
// query routes through it and reads a shard's adjacency by slot, so no
// lookup goes through a hash map, and a store is built in time linear in its
// edges and replicas with one dense per-vertex scratch (BuildFromShards).
//
// A Store is the immutable base. Queries resolve once, on an Epoch: a base
// plus an optional overlay of edge insertions and deletions, a few immutable
// sorted runs that a Writer seals and consecutive epochs share (epoch.go,
// overlay.go). The Store's own queries run on an Epoch with no overlay, so
// a resident store and a live graph share one read path and one set of
// counters.
//
// The offline partitioners in this repository minimize replication factor
// (Eq. 1 of the paper); the store turns that static metric into a measured
// serving cost. Every query records how many shards it had to touch beyond
// the first — the cross-shard hops — so two partitionings with different
// replication factors produce measurably different serving traffic for the
// same workload.
package store

import (
	"context"
	"fmt"
	"slices"

	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// shard is one partition's immutable CSR slice of the graph: the edges the
// partitioning assigned to it, indexed by the (global) vertices they touch.
// A vertex's slot is its position in verts; the store's replica index keeps
// the slot beside each replica, so no lookup here goes by vertex id.
type shard struct {
	verts []graph.Vertex // global ids present in this shard, sorted
	off   []int64        // CSR offsets by slot, len(verts)+1
	tgt   []graph.Vertex // neighbor global ids, ascending per slot
	edges int64          // owned edge count
}

// degreeOf returns the local degree of the vertex at slot l.
func (s *shard) degreeOf(l uint32) int64 { return s.off[l+1] - s.off[l] }

// neighborsOf returns the local adjacency of the vertex at slot l. Callers
// must not mutate it.
func (s *shard) neighborsOf(l uint32) []graph.Vertex { return s.tgt[s.off[l]:s.off[l+1]] }

// Store serves point and traversal queries over a sharded graph. It is
// immutable after BuildFromShards and safe for concurrent use.
type Store struct {
	numVertices uint32
	// covered counts the vertices with at least one replica, counted once
	// where the replica index is built.
	covered  uint32
	numEdges int64
	shards   []*shard

	// replicas is the replica index: the shards holding v, sorted by shard
	// id, and v's slot in each.
	replicas partition.ReplicaIndex

	metrics metrics

	// view is the store as an Epoch with an empty overlay; every Store
	// query delegates to it.
	view *Epoch
}

// BuildPartitioning materializes a raw partitioning into a Store. The
// partitioning must be complete and in range for g (Validate). Each edge's
// packed key goes to its owner's bucket; g's edges are canonical, sorted
// and unique, so every bucket is strictly increasing as BuildFromShards
// requires.
func BuildPartitioning(g *graph.Graph, p *partition.Partitioning) (*Store, error) {
	if err := p.Validate(g); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if p.NumParts <= 0 {
		return nil, fmt.Errorf("store: no shards")
	}
	packed := make([][]uint64, p.NumParts)
	for s, n := range p.EdgeCounts() {
		packed[s] = make([]uint64, 0, n)
	}
	for i, e := range g.Edges() {
		o := p.Owner[i]
		packed[o] = append(packed[o], graph.PackEdge(e.U, e.V))
	}
	return BuildFromShards(g.NumVertices(), packed)
}

// buildRouting derives the replica index from the filled shards' vertex
// lists, counts the covered vertices, and refuses an edge that two shards
// hold. mark is a zeroed per-vertex scratch.
func (st *Store) buildRouting(mark []uint32) error {
	verts := make([][]graph.Vertex, len(st.shards))
	for s, sh := range st.shards {
		verts[s] = sh.verts
	}
	st.replicas = partition.NewReplicaIndex(st.numVertices, verts)
	for v := uint32(0); v < st.numVertices; v++ {
		reps, slots := st.replicas.Of(v)
		if len(reps) > 0 {
			st.covered++
		}
		if len(reps) > 1 {
			if err := st.checkDisjoint(v, reps, slots, mark); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkDisjoint refuses an edge (v,w), w > v, that two of v's replica
// shards hold. It stamps mark[w] with v+1 for each such neighbour, the tail
// of each ascending row, so the stamps of lower vertices never need
// clearing and each edge costs one visit, at its lower endpoint.
func (st *Store) checkDisjoint(v graph.Vertex, reps []int32, slots []uint32, mark []uint32) error {
	for i, s := range reps {
		adj := st.shards[s].neighborsOf(slots[i])
		for k := len(adj) - 1; k >= 0 && adj[k] > v; k-- {
			w := adj[k]
			if mark[w] != v+1 {
				mark[w] = v + 1
				continue
			}
			for j, r := range reps[:i] {
				if _, ok := slices.BinarySearch(st.shards[r].neighborsOf(slots[j]), w); ok {
					return fmt.Errorf("store: edge (%d,%d) held by shards %d and %d", v, w, r, s)
				}
			}
		}
	}
	return nil
}

// serve finishes construction: counters sized to the shards, and the
// empty-overlay Epoch the queries run on.
func (st *Store) serve() *Store {
	st.metrics.init(len(st.shards))
	st.view = newEpoch(st, nil, 0)
	return st
}

// NumVertices returns |V| of the graph the store was built from.
func (st *Store) NumVertices() uint32 { return st.numVertices }

// CoveredVertices returns the number of vertices with at least one
// replica: those an edge touches, where NumVertices also counts isolated
// ids.
func (st *Store) CoveredVertices() uint32 { return st.covered }

// NumEdges returns the total owned edge count across shards (== |E|).
func (st *Store) NumEdges() int64 { return st.numEdges }

// NumShards returns the shard count (the partitioning's NumParts).
func (st *Store) NumShards() int { return len(st.shards) }

// ShardEdges returns the number of edges owned by shard s.
func (st *Store) ShardEdges(s int) int64 { return st.shards[s].edges }

// ShardVertices returns the number of vertex replicas held by shard s.
func (st *Store) ShardVertices(s int) int { return len(st.shards[s].verts) }

// ShardCSR returns shard s's CSR: its vertices, ascending, and the
// neighbours of the vertex at slot l, tgt[off[l]:off[l+1]], ascending.
// Callers must not mutate the slices.
func (st *Store) ShardCSR(s int) (verts []graph.Vertex, off []int64, tgt []graph.Vertex) {
	sh := st.shards[s]
	return sh.verts, sh.off, sh.tgt
}

// Replicas returns the shards holding a copy of v, sorted by shard id.
// Callers must not mutate the returned slice.
func (st *Store) Replicas(v graph.Vertex) []int32 {
	if v >= st.numVertices {
		return nil
	}
	reps, _ := st.replicas.Of(v)
	return reps
}

// owner returns the shard whose base holds edge (u,v), in either order, or
// dead. Only a shard holding both endpoints can hold the edge: on each, it
// binary-searches the shorter of the two adjacencies.
func (st *Store) owner(u, v graph.Vertex) int32 {
	if u >= st.numVertices || v >= st.numVertices {
		return dead
	}
	ru, su := st.replicas.Of(u)
	rv, sv := st.replicas.Of(v)
	for i, j := 0, 0; i < len(ru) && j < len(rv); {
		switch {
		case ru[i] < rv[j]:
			i++
		case ru[i] > rv[j]:
			j++
		default:
			sh := st.shards[ru[i]]
			adj, w := sh.neighborsOf(su[i]), v
			if other := sh.neighborsOf(sv[j]); len(other) < len(adj) {
				adj, w = other, u
			}
			if _, ok := slices.BinarySearch(adj, w); ok {
				return ru[i]
			}
			i++
			j++
		}
	}
	return dead
}

// Neighbors returns v's full neighbor set, sorted. Each edge lives on
// exactly one shard, so the per-shard adjacency lists are disjoint and their
// concatenation is the global list.
func (st *Store) Neighbors(v graph.Vertex) ([]graph.Vertex, error) { return st.view.Neighbors(v) }

// crossHops is the cross-shard cost of touching r replica shards: the
// fetches beyond the first. A vertex held by one shard costs zero; every
// extra replica is one hop — which is exactly what a low replication factor
// minimizes.
func crossHops(r int) int64 {
	if r <= 1 {
		return 0
	}
	return int64(r - 1)
}

// KHopResult is the outcome of a KHop traversal.
type KHopResult struct {
	Source graph.Vertex
	K      int
	// Vertices are all vertices within distance ≤ K of Source (Source
	// included), ordered by (depth, id); Depths is parallel to it.
	Vertices []graph.Vertex
	Depths   []int32
	// LevelSizes[d] is the number of vertices first reached at depth d.
	LevelSizes []int64
	// CrossShardHops is the replica fetches beyond the first per expanded
	// frontier vertex — the traffic a distributed BFS pays for mirrors.
	CrossShardHops int64
	// ShardTasks is the number of per-shard scans the traversal ran: one
	// per level for each shard holding a copy of a frontier vertex.
	ShardTasks int64
}

// KHop runs a level-synchronous BFS from v to depth k on the caller's
// goroutine, scanning each level on every shard holding a copy of a
// frontier vertex (Epoch.KHop).
func (st *Store) KHop(ctx context.Context, v graph.Vertex, k int) (*KHopResult, error) {
	return st.view.KHop(ctx, v, k)
}
