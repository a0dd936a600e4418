// Package engine is a vertex-cut (edge-partitioned) distributed
// graph-processing engine in the PowerGraph/PowerLyra family, used to
// reproduce Table 5 (§7.6): it executes SSSP, WCC and PageRank over any edge
// partitioning and reports elapsed time, per-partition workload balance and
// the master–mirror replica synchronisation volume that partition quality
// controls.
//
// Execution follows the synchronous gather-apply-scatter model: each
// partition owns its edge set and computes partial per-vertex aggregates
// locally; mirrors ship partials to each vertex's master (gather), masters
// apply the update, and new values are shipped back to mirrors (scatter).
// Communication is accounted analytically — valueBytes per mirror hop — and
// per-partition busy time is measured on real goroutines.
//
// Layout: each partition holds its sorted vertex set V(Ep), read out of a
// replica bitset slab, and its edges in local indices (positions in V(Ep)),
// mapped through one dense slot row over vertex ids. A
// partition.ReplicaIndex built from the vertex sets maps every vertex to the
// partitions holding it, which the communication accounting counts. Building
// an engine takes no hash map, sort or binary search, and allocates per
// partition, not per vertex.
package engine

import (
	"sync"
	"time"

	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// valueBytes is the accounted wire size of one vertex value update
// (vertex id + value).
const valueBytes = 12

// localEdge is an edge in partition-local vertex indices.
type localEdge struct {
	u, v int32
}

// part is one partition's share of the graph.
type part struct {
	verts []graph.Vertex // sorted global ids of local vertices (replicas)
	edges []localEdge
	busy  time.Duration // accumulated compute time
}

// Engine executes vertex programs over an edge-partitioned graph.
type Engine struct {
	g     *graph.Graph
	parts []*part
	// replicas maps every vertex to the partitions holding it and its
	// local index in each; a vertex's master is the first of them.
	replicas partition.ReplicaIndex

	// CommBytes accumulates gather+scatter traffic across all supersteps.
	CommBytes int64
	// Supersteps counts executed iterations.
	Supersteps int
}

// New builds an engine from a complete partitioning of g in O(|V|·P/64 +
// |E| + Σ|V(Ep)|): the vertex sets and the replica index, then each
// partition's edges in edge order, mapped to local ids through the slots.
func New(g *graph.Graph, pt *partition.Partitioning) *Engine {
	verts, edgeCounts := pt.VertexSets(g)
	e := &Engine{
		g:        g,
		parts:    make([]*part, pt.NumParts),
		replicas: partition.NewReplicaIndex(g.NumVertices(), verts),
	}
	for q := range e.parts {
		e.parts[q] = &part{verts: verts[q], edges: make([]localEdge, 0, edgeCounts[q])}
	}
	// Each edge goes to its owner in edge order, still in global ids; then
	// each partition rewrites its own edges through a dense slot row over
	// vertex ids, filled from its vertex set.
	for i, o := range pt.Owner {
		ed := g.Edge(int64(i))
		p := e.parts[o]
		p.edges = append(p.edges, localEdge{int32(ed.U), int32(ed.V)})
	}
	slot := make([]int32, g.NumVertices())
	for _, p := range e.parts {
		for l, v := range p.verts {
			slot[v] = int32(l)
		}
		for j, le := range p.edges {
			p.edges[j] = localEdge{slot[uint32(le.u)], slot[uint32(le.v)]}
		}
	}
	return e
}

// NumParts returns the partition count.
func (e *Engine) NumParts() int { return len(e.parts) }

// WorkloadBalance returns max/mean of per-partition busy time accumulated so
// far (the WB column of Table 5).
func (e *Engine) WorkloadBalance() float64 {
	var total, max time.Duration
	for _, p := range e.parts {
		total += p.busy
		if p.busy > max {
			max = p.busy
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(e.parts))
	return float64(max) / mean
}

// ResetStats clears communication and balance accounting.
func (e *Engine) ResetStats() {
	e.CommBytes = 0
	e.Supersteps = 0
	for _, p := range e.parts {
		p.busy = 0
	}
}

// runParallel executes fn(q) for every partition on its own goroutine and
// adds the measured busy time to each partition.
func (e *Engine) runParallel(fn func(q int)) {
	var wg sync.WaitGroup
	for q := range e.parts {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			start := time.Now()
			fn(q)
			e.parts[q].busy += time.Since(start)
		}(q)
	}
	wg.Wait()
}

// accountSync charges one gather+scatter round for vertex v: each mirror
// sends a partial to the master and receives the new value.
func (e *Engine) accountSync(v graph.Vertex) {
	mirrors := e.replicas.Count(v) - 1
	if mirrors > 0 {
		e.CommBytes += int64(mirrors) * valueBytes * 2
	}
}

// accountScatterOnly charges a master→mirror broadcast for v (used when the
// gather side was quiescent).
func (e *Engine) accountScatterOnly(v graph.Vertex) {
	mirrors := e.replicas.Count(v) - 1
	if mirrors > 0 {
		e.CommBytes += int64(mirrors) * valueBytes
	}
}
