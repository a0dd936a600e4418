package partition

import (
	"github.com/distributedne/dne/internal/bitset"
	"github.com/distributedne/dne/internal/graph"
)

// ReplicaIndex is the vertex → replica map of a finished partitioning in
// three flat arrays, the compact-array layout of §7.3 instead of a hash table
// per partition: the partitions holding a copy of vertex v are
// parts[off[v]:off[v+1]], ascending, and slots[i] is v's position in the
// sorted vertex list V(Ep) of partition parts[i]. The store builds it from
// its shards and routes queries through it; the analytics engine runs on a
// store and counts mirrors with the store's index.
type ReplicaIndex struct {
	off   []int64  // len |V|+1
	parts []int32  // len Σp |V(Ep)|
	slots []uint32 // parallel to parts
}

// NewReplicaIndex builds the index over numVertices vertices from the
// partitions' vertex lists: verts[p] is V(Ep), strictly increasing, ids below
// numVertices. It runs in O(|V| + Σp |V(Ep)|) with three allocations: one
// count pass, then a fill in descending partition order with off itself as
// the per-vertex cursor, so each vertex's replicas come out ascending.
func NewReplicaIndex(numVertices uint32, verts [][]graph.Vertex) ReplicaIndex {
	ri := ReplicaIndex{off: make([]int64, int(numVertices)+1)}
	var total int64
	for _, vs := range verts {
		for _, v := range vs {
			ri.off[v]++
		}
		total += int64(len(vs))
	}
	// off[v] becomes the end of v's range; filling decrements it to the
	// start.
	for v := 1; v < int(numVertices); v++ {
		ri.off[v] += ri.off[v-1]
	}
	ri.off[numVertices] = total
	ri.parts = make([]int32, total)
	ri.slots = make([]uint32, total)
	for p := len(verts) - 1; p >= 0; p-- {
		for l, v := range verts[p] {
			ri.off[v]--
			ri.parts[ri.off[v]] = int32(p)
			ri.slots[ri.off[v]] = uint32(l)
		}
	}
	return ri
}

// Of returns the partitions holding v and v's slot in each. Callers must
// not mutate either slice.
func (ri *ReplicaIndex) Of(v graph.Vertex) (parts []int32, slots []uint32) {
	lo, hi := ri.off[v], ri.off[v+1]
	return ri.parts[lo:hi], ri.slots[lo:hi]
}

// replicaSlab returns one bitset row of words u64s per vertex of g, row v
// holding the partitions that cover v, and |Ep| per partition. Unassigned
// edges are skipped.
func (p *Partitioning) replicaSlab(g *graph.Graph) (slab []uint64, words int, edgeCounts []int64) {
	words = bitset.WordsFor(p.NumParts)
	slab = make([]uint64, int(g.NumVertices())*words)
	edgeCounts = make([]int64, p.NumParts)
	for i, o := range p.Owner {
		if o == None {
			continue
		}
		e := g.Edge(int64(i))
		w, b := int(o)>>6, uint64(1)<<(uint(o)&63)
		slab[int(e.U)*words+w] |= b
		slab[int(e.V)*words+w] |= b
		edgeCounts[o]++
	}
	return slab, words, edgeCounts
}
