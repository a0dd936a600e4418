package lppart

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// DistLP is Spinner/XtraPuLP as they actually run in the paper's
// comparisons: a *distributed* label-propagation vertex partitioner over
// the message-passing substrate. Vertices are 1D-hashed across |P| machines;
// each machine stores its vertices' full adjacency rows (so every edge is
// replicated on both endpoints' machines — the memory cost §4 attributes to
// vertex-partitioned layouts) plus ghost labels for remote neighbors.
// Each superstep every machine rescoreds its vertices with the Spinner
// objective against a globally gathered load vector and ships changed labels
// to the machines hosting their neighbors.
//
// The Last field exposes the run's distributed memory footprint and
// communication volume for Fig. 9 / Fig. 10-style accounting.
type DistLP struct {
	// Iterations of label propagation (default 20).
	Iterations int
	// Capacity slack c (default 1.05).
	Capacity float64
	Seed     int64

	// Last holds the previous run's execution metrics.
	Last *DistLPStats
}

// DistLPStats are one run's execution metrics, summed across machines.
type DistLPStats struct {
	// MemBytes is the distributed footprint: per-machine adjacency rows
	// (edges appear on both endpoint machines), owned labels and ghost
	// tables.
	MemBytes int64
	// CommBytes / CommMessages are the label-exchange traffic.
	CommBytes    int64
	CommMessages int64
	// Supersteps executed.
	Supersteps int
}

// vl is a vertex-label update on the wire.
type vl struct {
	V graph.Vertex
	L int32
}

// vlBody carries label updates.
type vlBody struct{ Pairs []vl }

// WireSize implements cluster.Body: 8-byte ⟨V u32, L i32⟩ records.
func (b vlBody) WireSize() int { return 8 * len(b.Pairs) }

// WireKind implements cluster.WireBody.
func (vlBody) WireKind() uint8 { return kindVL }

// AppendWire implements cluster.WireBody.
func (b vlBody) AppendWire(dst []byte) []byte {
	for _, x := range b.Pairs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(x.V)|uint64(uint32(x.L))<<32)
	}
	return dst
}

func decodeVL(p []byte) (cluster.Body, error) {
	if len(p)%8 != 0 {
		return nil, cluster.ErrWireLength
	}
	pairs := make([]vl, len(p)/8)
	for i := range pairs {
		w := binary.LittleEndian.Uint64(p[8*i:])
		pairs[i] = vl{V: graph.Vertex(w), L: int32(w >> 32)}
	}
	return vlBody{Pairs: pairs}, nil
}

// edgeOwnerBody ships final edge assignments to rank 0.
type edgeOwnerBody struct {
	Idx   []int64
	Owner []int32
}

// WireSize implements cluster.Body: the indices (i64 each), then as many
// owners (i32 each).
func (b edgeOwnerBody) WireSize() int { return 8*len(b.Idx) + 4*len(b.Owner) }

// WireKind implements cluster.WireBody.
func (edgeOwnerBody) WireKind() uint8 { return kindEdgeOwner }

// AppendWire implements cluster.WireBody.
func (b edgeOwnerBody) AppendWire(dst []byte) []byte {
	return cluster.AppendKeyed(dst, b.Idx, b.Owner)
}

func decodeEdgeOwner(p []byte) (cluster.Body, error) {
	idx, owner, err := cluster.DecodeKeyed[int64](p)
	if err != nil {
		return nil, err
	}
	return edgeOwnerBody{Idx: idx, Owner: owner}, nil
}

const (
	tagLabels cluster.Tag = cluster.TagUser + iota
	tagOwners
)

// Body kinds on the TCP transport (the 32–47 block of cluster's kind
// namespace).
const (
	kindVL uint8 = 32 + iota
	kindEdgeOwner
)

func init() {
	cluster.RegisterWire(kindVL, decodeVL)
	cluster.RegisterWire(kindEdgeOwner, decodeEdgeOwner)
}

// PartitionCtx runs the distributed label propagation on numParts in-process
// machines and converts the vertex labels to an edge partitioning (§7.1
// conversion, done distributed: each edge is converted by the machine
// owning its canonical U endpoint). Each superstep ends with a collective
// all-gather of the machines' cancel flags, so every machine aborts at the
// same superstep boundary and the lock-step protocol stays deadlock-free.
func (d *DistLP) PartitionCtx(ctx context.Context, g *graph.Graph, numParts int) (*partition.Partitioning, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if numParts <= 0 {
		return nil, fmt.Errorf("lppart: numParts must be positive, got %d", numParts)
	}
	iters := d.Iterations
	if iters <= 0 {
		iters = 20
	}
	capacity := d.Capacity
	if capacity == 0 {
		capacity = 1.05
	}
	c := cluster.New(numParts)
	p := partition.New(numParts, g.NumEdges())
	stats := make([]DistLPStats, numParts)
	err := c.Run(func(comm cluster.Comm) error {
		return d.runMachine(ctx, comm, g, iters, capacity, &stats[comm.Rank()], p.Owner)
	})
	if err != nil {
		return nil, err
	}
	agg := &DistLPStats{}
	for _, s := range stats {
		agg.MemBytes += s.MemBytes
		agg.CommBytes += s.CommBytes
		agg.CommMessages += s.CommMessages
		if s.Supersteps > agg.Supersteps {
			agg.Supersteps = s.Supersteps
		}
	}
	d.Last = agg
	return p, nil
}

func (d *DistLP) runMachine(ctx context.Context, comm cluster.Comm, g *graph.Graph, iters int, capacity float64, st *DistLPStats, ownerOut []int32) error {
	pCount := comm.Size()
	rank := comm.Rank()
	owner := func(v graph.Vertex) int { return int(v) % pCount }

	// Owned vertices and their adjacency rows (views into g's CSR; the
	// footprint is charged as if copied, which a real deployment must).
	var owned []graph.Vertex
	for v := graph.Vertex(rank); v < graph.Vertex(g.NumVertices()); v += graph.Vertex(pCount) {
		owned = append(owned, v)
	}
	// Ghost table: labels of every remote neighbor, plus local labels.
	labels := make(map[graph.Vertex]int32)
	// Initial labels are a pure hash so every machine derives any vertex's
	// initial label without communication (Spinner's random init).
	initLabel := func(v graph.Vertex) int32 {
		return int32((uint64(v)*0x9e3779b97f4a7c15 + uint64(d.Seed)) >> 33 % uint64(pCount))
	}
	var adjEntries int64
	ghosts := make(map[graph.Vertex]struct{})
	for _, v := range owned {
		labels[v] = initLabel(v)
		adjEntries += g.Degree(v)
		for _, u := range g.Neighbors(v) {
			if owner(u) != rank {
				ghosts[u] = struct{}{}
			}
		}
	}
	//lint:ordered each key written independently with a pure function of the key
	for u := range ghosts {
		labels[u] = initLabel(u)
	}

	// Degree-weighted global loads via all-gather of local contributions.
	localLoad := make([]int64, pCount)
	for _, v := range owned {
		localLoad[labels[v]] += g.Degree(v)
	}
	loads := cluster.AllGatherSumVec(comm, localLoad)
	maxLoad := capacity * 2 * float64(g.NumEdges()) / float64(pCount)

	counts := make([]int64, pCount)
	outUpd := make([][]vl, pCount)
	for it := 0; it < iters; it++ {
		st.Supersteps++
		for q := 0; q < pCount; q++ {
			outUpd[q] = outUpd[q][:0]
		}
		moved := int64(0)
		for _, v := range owned {
			for q := range counts {
				counts[q] = 0
			}
			for _, u := range g.Neighbors(v) {
				counts[labels[u]]++
			}
			cur := labels[v]
			best := cur
			bestScore := score(counts[cur], loads[cur], maxLoad)
			for q := 0; q < pCount; q++ {
				if s := score(counts[q], loads[q], maxLoad); s > bestScore {
					best = int32(q)
					bestScore = s
				}
			}
			if best != cur {
				labels[v] = best
				moved++
				for _, u := range g.Neighbors(v) {
					if q := owner(u); q != rank {
						outUpd[q] = append(outUpd[q], vl{V: v, L: best})
					}
				}
			}
		}
		for q := 0; q < pCount; q++ {
			if q == rank {
				continue
			}
			comm.Send(q, tagLabels, vlBody{Pairs: dedupVL(outUpd[q])})
		}
		for _, m := range comm.RecvN(tagLabels, pCount-1) {
			for _, u := range m.Body.(vlBody).Pairs {
				if _, ok := labels[u.V]; ok {
					labels[u.V] = u.L
				}
			}
		}
		// Refresh global loads from local contributions.
		for q := range localLoad {
			localLoad[q] = 0
		}
		for _, v := range owned {
			localLoad[labels[v]] += g.Degree(v)
		}
		loads = cluster.AllGatherSumVec(comm, localLoad)
		movedSum := cluster.AllGatherSum(comm, moved)
		var cancelFlag int64
		if ctx.Err() != nil {
			cancelFlag = 1
		}
		// Decide on the gathered flag (identical on every machine), not the
		// racy local ctx, so all machines return at the same superstep.
		if cluster.AllGatherSum(comm, cancelFlag) > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			return context.Canceled
		}
		if movedSum == 0 {
			break
		}
	}

	// Distributed memory footprint: adjacency rows (targets 4B + per-vertex
	// offsets 8B), owned labels 4B, ghost table ~12B/entry (id + label +
	// index overhead).
	st.MemBytes = adjEntries*4 + int64(len(owned))*12 + int64(len(ghosts))*12

	// Edge conversion at the machine owning e.U (deterministic endpoint
	// pick by edge-index hash, matching VertexToEdge's coin flip in
	// distribution). Requires e.V's label: for owned e.V it is local;
	// otherwise it is in the ghost table iff some owned vertex neighbors
	// e.V — which e.U does.
	var idx []int64
	var own []int32
	for i, e := range g.Edges() {
		if owner(e.U) != rank {
			continue
		}
		var l int32
		if (uint64(i)*0xbf58476d1ce4e5b9)>>63 == 0 {
			l = labels[e.U]
		} else {
			l = labels[e.V]
		}
		idx = append(idx, int64(i))
		own = append(own, l)
	}
	st.CommBytes = comm.Stats().BytesSent.Load()
	st.CommMessages = comm.Stats().MessagesSent.Load()
	comm.Send(0, tagOwners, edgeOwnerBody{Idx: idx, Owner: own})
	if rank == 0 {
		for _, m := range comm.RecvN(tagOwners, pCount) {
			body := m.Body.(edgeOwnerBody)
			for i, gi := range body.Idx {
				ownerOut[gi] = body.Owner[i]
			}
		}
	}
	return nil
}

// dedupVL removes duplicate (V,L) pairs keeping the last label per vertex.
// The sort is the same pdqsort permutation sort.Slice ran (both stdlib
// implementations are generated from one algorithm), so which duplicate
// survives — and therefore the seeded partitioning — is unchanged.
func dedupVL(in []vl) []vl {
	if len(in) < 2 {
		return in
	}
	slices.SortFunc(in, func(a, b vl) int { return cmp.Compare(a.V, b.V) })
	out := in[:0]
	for i, p := range in {
		if i+1 < len(in) && in[i+1].V == p.V {
			continue
		}
		out = append(out, p)
	}
	return out
}
