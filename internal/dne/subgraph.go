package dne

import (
	"math/bits"
	"math/rand"

	"github.com/distributedne/dne/internal/bitset"
	"github.com/distributedne/dne/internal/graph"
)

// subGraph is one allocation process's share of the input graph (§4 "Data
// Structure"): a CSR over the locally-owned (unique) edges, per-edge owner
// words, and per-local-vertex partition bitsets and free-degree
// counters. Vertices are replicated across machines; edges are not.
//
// All per-vertex state is held in flat slabs indexed by local vertex id, and
// the adjacency names neighbours by local id too, so the superstep's inner
// loops never translate ids; the vertex table is read only where a global id
// arrives from the wire — the paper's compact-arrays-not-hash-tables argument
// (§7.3) applied to the reproduction's own inner loops. Nothing is sized by
// the global vertex count.
type subGraph struct {
	numParts int

	// vt maps global ids to compact ids. The local vertices — the endpoints
	// of the local edges — hold compact ids [0, nLocal) in ascending global
	// order: those are the "local vertex ids" the arrays below are indexed
	// by, and vt.ids[lv] is local vertex lv's global id. The machine appends
	// the remote vertices its boundary reaches after them.
	vt     *vertexTable
	nLocal int32

	// CSR over local edges: each local undirected edge appears in two
	// adjacency lists.
	off    []int64
	target []int32 // neighbor (local id)
	eIdx   []int32 // local edge index for the adjacency slot

	// aliveLen[lv] bounds the adjacency slots of lv still worth scanning:
	// the allocation paths compact surviving free slots to the front of lv's
	// range (stably, preserving ascending edge-index order),
	// so repeated expansions of hub vertices do not rescan allocated edges.
	// Invariant: every free local edge incident to lv lies in
	// target/eIdx[off[lv] : off[lv]+aliveLen[lv]].
	aliveLen []int32

	// keys are the local edges as packed canonical keys, ascending: the
	// slice the shuffle delivered, kept as it is. Local edge index i is
	// keys[i].
	keys  []uint64
	owner []int32 // partition owning local edge i, or -1

	// Partition membership bitsets, one per local vertex, packed into a
	// single slab of wordsPer words each; partSet(lv) is the view.
	partWords []uint64
	wordsPer  int

	drest []int32 // free (unallocated) local degree per local vertex

	freeEdges int64 // number of unallocated local edges
	seedCur   int   // rotating cursor for random-seed scans
}

// buildSubGraphPacked materializes the subgraph from sorted, deduplicated
// packed edge keys — the form the distributed shuffle delivers — and keeps
// packed as its edge list. No global edge array is consulted and no global
// edge indices exist; result collection keys by the packed edges themselves.
func buildSubGraphPacked(numParts int, packed []uint64) *subGraph {
	sg := &subGraph{numParts: numParts, keys: packed}

	// Distinct local vertices: the table deduplicates the endpoints in edge
	// order (the sources ascend with the keys, so a run of one source is
	// inserted once), and owner holds each edge's target compact id until
	// the CSR is built. Renumbering the table in ascending global order
	// turns those into local ids.
	sources := 0
	for i, k := range packed {
		if i == 0 || k>>32 != packed[i-1]>>32 {
			sources++
		}
	}
	sg.vt = newVertexTable(sources)
	sg.owner = make([]int32, len(packed))
	for i, k := range packed {
		if i == 0 || k>>32 != packed[i-1]>>32 {
			sg.vt.insert(graph.Vertex(k >> 32))
		}
		sg.owner[i] = sg.vt.insert(graph.Vertex(k))
	}
	sg.vt.sort(sg.owner)
	sg.nLocal = int32(len(sg.vt.ids))

	// A walk along the sorted ids finds each source's local id.
	forEdges := func(fn func(i int, lu, lv int32)) {
		lu := int32(0)
		for i, k := range packed {
			for sg.vt.ids[lu] != graph.Vertex(k>>32) {
				lu++
			}
			fn(i, lu, sg.owner[i])
		}
	}
	n := int(sg.nLocal)
	sg.off = make([]int64, n+1)
	forEdges(func(_ int, lu, lv int32) {
		sg.off[lu+1]++
		sg.off[lv+1]++
	})
	for v := 0; v < n; v++ {
		sg.off[v+1] += sg.off[v]
	}
	sg.target = make([]int32, sg.off[n])
	sg.eIdx = make([]int32, sg.off[n])
	cursor := make([]int32, n)
	forEdges(func(i int, lu, lv int32) {
		pu := sg.off[lu] + int64(cursor[lu])
		sg.target[pu] = lv
		sg.eIdx[pu] = int32(i)
		cursor[lu]++
		pv := sg.off[lv] + int64(cursor[lv])
		sg.target[pv] = lu
		sg.eIdx[pv] = int32(i)
		cursor[lv]++
	})
	for i := range sg.owner {
		sg.owner[i] = -1
	}
	sg.wordsPer = bitset.WordsFor(numParts)
	sg.partWords = make([]uint64, n*sg.wordsPer)
	sg.drest = make([]int32, n)
	sg.aliveLen = make([]int32, n)
	for v := 0; v < n; v++ {
		d := int32(sg.off[v+1] - sg.off[v])
		sg.drest[v] = d
		sg.aliveLen[v] = d
	}
	sg.freeEdges = int64(len(packed))
	return sg
}

// endpoints returns the local ids of local edge le's endpoints.
func (sg *subGraph) endpoints(le int) (lu, lv int32) {
	k := sg.keys[le]
	return sg.vt.find(graph.Vertex(k >> 32)), sg.vt.find(graph.Vertex(k))
}

// local returns the local id of global vertex v, or -1 when v has no local
// edge.
func (sg *subGraph) local(v graph.Vertex) int32 {
	if c := sg.vt.find(v); c < sg.nLocal {
		return c
	}
	return -1
}

// partSet returns the partition-membership bitset view of local vertex lv.
func (sg *subGraph) partSet(lv int32) bitset.Set {
	return bitset.FromWords(sg.partWords[int(lv)*sg.wordsPer : int(lv+1)*sg.wordsPer])
}

// allocateEdge gives the free local edge le, whose endpoints have local ids
// lu and lv, to partition p. One allocation process owns the subgraph and
// handles its selections one after another (the deterministic order the
// seeded partitioning is defined by), so the claim the paper resolves with a
// CAS (§4) is a plain store here.
func (sg *subGraph) allocateEdge(le, p, lu, lv int32) {
	sg.owner[le] = p
	sg.drest[lu]--
	sg.drest[lv]--
	sg.freeEdges--
}

// allocOneHop performs Alg. 3 AllocateOneHopNeighbors for a single received
// ⟨v, p⟩ pair, v a local id: v's free local edges go to p, one unit of
// *quota each, until either runs out. It appends the new local boundary
// pairs ⟨u, p⟩ to bp and the allocated local edge indices to out. Like
// allocTwoHop it compacts the slots that stay free to the front of v's alive
// range — none unless the quota stopped it early.
func (sg *subGraph) allocOneHop(lv, p int32, quota *int64, out *[]int32, bp []lvp) []lvp {
	base := sg.off[lv]
	alive := int64(sg.aliveLen[lv])
	setV := sg.partSet(lv)
	var keep int64
	for s := int64(0); s < alive; s++ {
		le := sg.eIdx[base+s]
		if sg.owner[le] != -1 {
			continue // allocated: drop from the alive range
		}
		lu := sg.target[base+s]
		if *quota == 0 {
			sg.eIdx[base+keep] = le
			sg.target[base+keep] = lu
			keep++
			continue
		}
		*quota--
		sg.allocateEdge(le, p, lu, lv)
		setV.Set(int(p))
		sg.partSet(lu).Set(int(p))
		bp = append(bp, lvp{L: lu, P: p})
		*out = append(*out, le)
	}
	sg.aliveLen[lv] = int32(keep)
	return bp
}

// allocTwoHop performs Alg. 3 AllocateTwoHopNeighbors for one synced boundary
// vertex, local id lu: any free local edge (u,w) whose endpoints already
// share a partition is allocated to the smallest such partition that has
// quota left (Condition (5) never increases replication). sizesView is this
// machine's working view of the global |Eq| vector (gathered last superstep
// plus local increments), used for the argmin on Line 16; it and quota are
// updated for every allocation made here. Allocated local edge indices are
// appended to out. It stably compacts u's surviving free slots to the front
// of the alive range as it scans.
func (sg *subGraph) allocTwoHop(lu int32, sizesView, quota []int64, out *[]int32) {
	if sg.drest[lu] == 0 {
		return
	}
	base := sg.off[lu]
	alive := int64(sg.aliveLen[lu])
	wp := sg.wordsPer
	setU := sg.partWords[int(lu)*wp : int(lu+1)*wp]
	var keep int64
	for s := int64(0); s < alive; s++ {
		le := sg.eIdx[base+s]
		if sg.owner[le] != -1 {
			continue // allocated: drop from the alive range
		}
		lw := sg.target[base+s]
		setW := sg.partWords[int(lw)*wp : int(lw+1)*wp]
		// The argmin over the shared partitions, in ascending q with a strict
		// <, so the first of equally small partitions wins.
		best := int32(-1)
		for i, wu := range setU {
			for x := wu & setW[i]; x != 0; x &= x - 1 {
				q := i<<6 + bits.TrailingZeros64(x)
				if quota[q] > 0 && (best == -1 || sizesView[q] < sizesView[best]) {
					best = int32(q)
				}
			}
		}
		if best == -1 {
			sg.eIdx[base+keep] = le
			sg.target[base+keep] = lw
			keep++
			continue
		}
		sg.allocateEdge(le, best, lu, lw)
		sizesView[best]++
		quota[best]--
		*out = append(*out, le)
	}
	sg.aliveLen[lu] = int32(keep)
}

// randomSeed picks a vertex that still has a free local edge, scanning from a
// rotating cursor so repeated seeds cover the whole subgraph, and returns its
// local id. Returns false if every local edge is allocated.
func (sg *subGraph) randomSeed(rng *rand.Rand) (int32, bool) {
	if sg.freeEdges == 0 {
		return 0, false
	}
	n := len(sg.keys)
	start := sg.seedCur
	if n > 0 {
		start = (sg.seedCur + rng.Intn(n)) % n
	}
	for k := 0; k < n; k++ {
		le := (start + k) % n
		if sg.owner[le] == -1 {
			sg.seedCur = (le + 1) % n
			lu, lv := sg.endpoints(le)
			if rng.Intn(2) == 0 {
				return lu, true
			}
			return lv, true
		}
	}
	return 0, false
}

// sweepLeftovers assigns every remaining free edge to the smallest candidate
// partition. Candidates are, in this order,
// the partitions under their cap that already cover an endpoint, any
// partition under its cap, and — only when every partition is at its cap —
// the ones covering an endpoint, then all. partSizes is this machine's copy
// and counts what it sweeps. At the closing hand-off the free edges of all
// machines together fit into every under-cap partition, so no order of
// sweeping on no machine can push one over its cap.
func (sg *subGraph) sweepLeftovers(partSizes []int64, capEdges int64) {
	scratch := bitset.New(sg.numParts)
	for le, o := range sg.owner {
		if o != -1 {
			continue
		}
		lu, lv := sg.endpoints(le)
		best := int32(-1)
		smallest := func(q int) {
			if best == -1 || partSizes[q] < partSizes[best] {
				best = int32(q)
			}
		}
		smallestUnder := func(q int) {
			if partSizes[q] < capEdges {
				smallest(q)
			}
		}
		scratch.Reset()
		scratch.Or(sg.partSet(lu))
		scratch.Or(sg.partSet(lv))
		scratch.ForEach(smallestUnder)
		if best == -1 {
			for q := 0; q < sg.numParts; q++ {
				smallestUnder(q)
			}
		}
		if best == -1 {
			scratch.ForEach(smallest)
		}
		if best == -1 {
			for q := 0; q < sg.numParts; q++ {
				smallest(q)
			}
		}
		sg.allocateEdge(int32(le), best, lu, lv)
		partSizes[best]++
	}
}

// memoryFootprint returns an analytic byte count of this subgraph's arrays,
// used by the Fig-9 memory score. The vertex table, which the machine grows
// past the local vertices, and the packed partition-bitset slab are charged
// at their true flat-array sizes; no hash-map entry overhead exists.
func (sg *subGraph) memoryFootprint() int64 {
	return sg.vt.memoryFootprint() +
		int64(len(sg.off))*8 +
		int64(len(sg.target))*4 +
		int64(len(sg.eIdx))*4 +
		int64(len(sg.aliveLen))*4 +
		int64(len(sg.keys))*8 +
		int64(len(sg.owner))*4 +
		int64(len(sg.drest))*4 +
		int64(len(sg.partWords))*8
}
