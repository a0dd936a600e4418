// Package streampart implements the streaming edge partitioners of Table 4:
// HDRF (Petroni et al., CIKM'15) and SNE, the streaming variant of neighbor
// expansion (Zhang et al., KDD'17). Both consume a graph.Source — an edge
// stream — with dense state bounded by |V|, never holding the edge set:
// exactly the O(chunk)-memory design the paper's §7.5 trade-off measures.
// Both run over a deterministic seeded stream shuffle (graph.Shuffled) —
// replica-greedy placement needs a randomized arrival order — and index
// their output by raw stream position, so the in-memory path (a thin
// adapter over graph.SourceOf) and a canonical shard-dir path produce
// bit-identical partitionings.
package streampart

import (
	"context"
	"fmt"
	"math"

	"github.com/distributedne/dne/internal/bitset"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// HDRF is High-Degree Replicated First streaming partitioning. For each edge
// (u,v) it scores every partition q as
//
//	C_rep(q) = g(u,q)·(2−θu) + g(v,q)·(2−θv)
//	C_bal(q) = λ · (maxSize − size_q) / (ε + maxSize − minSize)
//
// with θu = δ(u)/(δ(u)+δ(v)) and g(x,q)=1 iff q ∈ A(x), and places the edge
// on the argmax — replicating the higher-degree endpoint first. Degrees come
// from a dedicated counting pass over the source (exact, "available
// offline") rather than streamed partial degrees; this only helps HDRF,
// keeping the comparison conservative.
//
// The argmax is exact without scoring all P partitions. C_rep takes one of
// four values per edge, one per replica class — A(u)∩A(v), A(u)\A(v),
// A(v)\A(u) and neither — and C_bal depends on q only through size_q and
// does not increase with it. So the partitions are kept as size levels (the
// distinct sizes present, each with a partition mask and its C_bal cached
// until maxSize or minSize moves), and each class proposes the lowest q of
// the smallest size it meets, scored with the same float expressions in the
// same order as the per-partition rule. A class walks on to larger sizes
// only while they score equal (C_bal rounded away against C_rep, at tiny λ),
// never past its own members, so ties still resolve to the lowest q and the
// owners are those of the per-partition rule, at O(P) per edge at worst.
// Only for a finite, non-negative λ does the order of the levels give the
// order of C_bal, so Stream rejects any other λ.
type HDRF struct {
	// Lambda is the balance weight λ, finite and ≥ 0; at 0 C_bal vanishes
	// and only replication decides.
	Lambda float64
}

// Stream is the streaming core: one degree-counting pass, then one
// assignment pass, with dense state (degrees, replica sets, size levels)
// bounded by |V| and |P|. It polls ctx every partition.CheckEvery edges.
func (h HDRF) Stream(ctx context.Context, src graph.Source, numParts int, st *partition.Stats) (*partition.Partitioning, error) {
	lambda := h.Lambda
	if !(lambda >= 0) || math.IsInf(lambda, 1) {
		return nil, fmt.Errorf("hdrf: lambda must be finite and non-negative, got %g", lambda)
	}
	deg, nv, ne, err := partition.DegreesAndCounts(ctx, src)
	if err != nil {
		return nil, err
	}
	p := partition.New(numParts, ne)
	replicas := partition.NewReplicaSets(numParts, nv)
	levels := newSizeLevels(numParts, lambda)
	st.PeakMemBytes += replicas.Bytes() + int64(nv)*4 + levels.Bytes() + graph.SourceBufferBytes
	err = partition.EachEdge(ctx, src, func(pos int64, k uint64) error {
		u, v := graph.Vertex(k>>32), graph.Vertex(k)
		du, dv := float64(deg[u]), float64(deg[v])
		thetaU := du / (du + dv)
		thetaV := 1 - thetaU
		ru, rv := replicas.Row(u), replicas.Row(v)
		best := levels.argmax(ru.Words(), rv.Words(), 2-thetaU, 2-thetaV)
		p.Owner[pos] = best
		ru.Set(int(best))
		rv.Set(int(best))
		levels.grow(best)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// SNE is streaming neighbor expansion: the edge stream is consumed in
// windows small enough to hold in memory; Condition-(5) closure sweeps run
// inside each window and the per-vertex replica sets persist across windows
// so later windows extend earlier partitions. This follows the batched
// formulation of Zhang et al. §5 but replaces the in-window min-degree
// expansion with closure sweeps; as a result its quality tracks HDRF rather
// than clearly beating it as in the paper's Table 4 (see the Table 4 note in
// README, "Benchmarks and experiments"). Memory is bounded by one window
// plus the |V|-dense state, not by |E|.
type SNE struct {
	// Alpha is the imbalance factor α ≥ 1 of the per-partition edge cap.
	Alpha float64
	// Windows is the stream window count; 0 means one window per
	// partition.
	Windows int
}

// Stream is the streaming core; it polls ctx every partition.CheckEvery
// processed edges (closure sweeps included).
func (s SNE) Stream(ctx context.Context, src graph.Source, numParts int, st *partition.Stats) (*partition.Partitioning, error) {
	deg, nv, ne, err := partition.DegreesAndCounts(ctx, src)
	if err != nil {
		return nil, err
	}
	windows := s.Windows
	if windows <= 0 {
		windows = numParts
	}
	if int64(windows) > ne {
		windows = int(ne)
	}
	p := partition.New(numParts, ne)
	capEdges := int64(s.Alpha * float64(ne) / float64(numParts))
	if capEdges < 1 {
		capEdges = 1
	}
	sizes := make([]int64, numParts)
	replicas := partition.NewReplicaSets(numParts, nv)
	scratch := bitset.New(numParts)
	per := 0
	if windows > 0 {
		per = (int(ne) + windows - 1) / windows
	}
	if per < 1 {
		per = 1
	}
	st.PeakMemBytes += replicas.Bytes() + int64(nv)*4 + int64(numParts)*8 +
		int64(per)*(8+8) + graph.SourceBufferBytes

	var processed int
	checkCtx := func() error {
		processed++
		if processed%partition.CheckEvery == 0 {
			return ctx.Err()
		}
		return nil
	}

	// processWindow runs the closure sweeps and the expansion step over one
	// buffered window; poss carries each window edge's raw stream position.
	processWindow := func(window []uint64, poss []int64) error {
		// Within the window, repeatedly sweep Condition-(5) edges — both
		// endpoints already share a partition — into that partition; each
		// sweep's assignments enable the next, mimicking the closure that
		// full neighbor expansion reaches.
		rest := make([]int, len(window))
		for j := range rest {
			rest[j] = j
		}
		for sweep := 0; sweep < 8 && len(rest) > 0; sweep++ {
			var defer2 []int
			assignedAny := false
			for _, j := range rest {
				if err := checkCtx(); err != nil {
					return err
				}
				u, v := graph.Vertex(window[j]>>32), graph.Vertex(window[j])
				if bitset.IntersectInto(scratch, replicas.Row(u), replicas.Row(v)) {
					if q := leastLoadedIn(scratch, sizes, capEdges); q >= 0 {
						assign(p, replicas, sizes, poss[j], u, v, q)
						assignedAny = true
						continue
					}
				}
				defer2 = append(defer2, j)
			}
			rest = defer2
			if !assignedAny {
				break
			}
		}
		// Expansion step over the residual window: place each edge on the
		// least-loaded partition adjacent to the lower-degree endpoint
		// (extending that partition's frontier cheaply), else the globally
		// least-loaded partition.
		for _, j := range rest {
			if err := checkCtx(); err != nil {
				return err
			}
			u, v := graph.Vertex(window[j]>>32), graph.Vertex(window[j])
			lowDeg := u
			if deg[v] < deg[u] {
				lowDeg = v
			}
			q := int32(-1)
			if low := replicas.Row(lowDeg); !low.Empty() {
				q = leastLoadedIn(low, sizes, capEdges)
			}
			if q < 0 {
				scratch.Reset()
				scratch.Or(replicas.Row(u))
				scratch.Or(replicas.Row(v))
				if !scratch.Empty() {
					q = leastLoadedIn(scratch, sizes, capEdges)
				}
			}
			if q < 0 {
				q = leastLoaded(sizes)
			}
			assign(p, replicas, sizes, poss[j], u, v, q)
		}
		return nil
	}

	winKeys := make([]uint64, 0, per)
	winPos := make([]int64, 0, per)
	err = partition.EachEdge(ctx, src, func(pos int64, k uint64) error {
		winKeys = append(winKeys, k)
		winPos = append(winPos, pos)
		if len(winKeys) == per {
			if err := processWindow(winKeys, winPos); err != nil {
				return err
			}
			winKeys, winPos = winKeys[:0], winPos[:0]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(winKeys) > 0 {
		if err := processWindow(winKeys, winPos); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func assign(p *partition.Partitioning, replicas *partition.ReplicaSets, sizes []int64, pos int64, u, v graph.Vertex, q int32) {
	p.Owner[pos] = q
	replicas.Set(u, int(q))
	replicas.Set(v, int(q))
	sizes[q]++
}

func leastLoadedIn(s bitset.Set, sizes []int64, capEdges int64) int32 {
	best := int32(-1)
	var bestSize int64
	s.ForEach(func(q int) {
		if sizes[q] >= capEdges {
			return
		}
		if best == -1 || sizes[q] < bestSize {
			best = int32(q)
			bestSize = sizes[q]
		}
	})
	return best
}

func leastLoaded(sizes []int64) int32 {
	best := int32(0)
	for q := 1; q < len(sizes); q++ {
		if sizes[q] < sizes[best] {
			best = int32(q)
		}
	}
	return best
}
