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
// Layout: the engine runs on a store.Store built from the partitioning, the
// same in-memory partitioned graph the serving layer queries. Each
// partition reads its shard's CSR by slot: its sorted vertex set V(Ep), and
// for each vertex the neighbours its edges in Ep reach, ascending. The
// store's replica index maps every vertex to the partitions holding it,
// which the communication accounting counts. Every app pulls over each
// slot's CSR row, so no partition stores edges of its own.
package engine

import (
	"fmt"
	"sync"
	"time"

	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
	"github.com/distributedne/dne/internal/store"
)

// valueBytes is the accounted wire size of one vertex value update
// (vertex id + value).
const valueBytes = 12

// part is one partition's view of its store shard.
type part struct {
	verts []graph.Vertex // sorted global ids of local vertices (replicas)
	off   []int64        // verts[l]'s neighbours are tgt[off[l]:off[l+1]]
	tgt   []graph.Vertex
	busy  time.Duration // accumulated compute time
}

// row returns the neighbours of the vertex at slot l over the partition's
// edges, ascending.
func (p *part) row(l int) []graph.Vertex { return p.tgt[p.off[l]:p.off[l+1]] }

// Engine executes vertex programs over an edge-partitioned graph.
type Engine struct {
	g     *graph.Graph // global degrees
	st    *store.Store
	parts []*part

	// CommBytes accumulates gather+scatter traffic across all supersteps.
	CommBytes int64
	// Supersteps counts executed iterations.
	Supersteps int
}

// New builds an engine on the store of a complete partitioning of g
// (store.BuildPartitioning). It panics if pt is not a valid partitioning of
// g.
func New(g *graph.Graph, pt *partition.Partitioning) *Engine {
	st, err := store.BuildPartitioning(g, pt)
	if err != nil {
		panic(fmt.Sprintf("engine: %v", err))
	}
	e := &Engine{g: g, st: st, parts: make([]*part, st.NumShards())}
	for q := range e.parts {
		p := &part{}
		p.verts, p.off, p.tgt = st.ShardCSR(q)
		e.parts[q] = p
	}
	return e
}

// perPart returns one zeroed slice per partition, indexed by slot.
func perPart[T any](e *Engine) [][]T {
	out := make([][]T, len(e.parts))
	for q, p := range e.parts {
		out[q] = make([]T, len(p.verts))
	}
	return out
}

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
	mirrors := len(e.st.Replicas(v)) - 1
	if mirrors > 0 {
		e.CommBytes += int64(mirrors) * valueBytes * 2
	}
}

// accountScatterOnly charges a master→mirror broadcast for v (used when the
// gather side was quiescent).
func (e *Engine) accountScatterOnly(v graph.Vertex) {
	mirrors := len(e.st.Replicas(v)) - 1
	if mirrors > 0 {
		e.CommBytes += int64(mirrors) * valueBytes
	}
}
