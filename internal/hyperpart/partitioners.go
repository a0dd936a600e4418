package hyperpart

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"

	"github.com/distributedne/dne/internal/bitset"
)

// Partitioner is implemented by every hypergraph partitioner here.
type Partitioner interface {
	Name() string
	Partition(h *Hypergraph, numParts int) (*Partitioning, error)
}

// Random assigns each hyperedge to a uniform random part — the hash
// baseline, directly analogous to 1D-hash edge partitioning.
type Random struct{ Seed int64 }

// Name implements Partitioner.
func (Random) Name() string { return "Rand" }

// Partition implements Partitioner.
func (r Random) Partition(h *Hypergraph, numParts int) (*Partitioning, error) {
	if numParts <= 0 {
		return nil, fmt.Errorf("hyperpart: numParts must be positive, got %d", numParts)
	}
	rng := rand.New(rand.NewSource(r.Seed))
	p := &Partitioning{NumParts: numParts, Owner: make([]int32, h.NumHyperedges())}
	for i := range p.Owner {
		p.Owner[i] = int32(rng.Intn(numParts))
	}
	return p, nil
}

// Greedy is HDRF-style streaming for hyperedges: each hyperedge goes to the
// part maximizing (pins already replicated there) − balance penalty, with an
// α cap on per-part pin counts.
type Greedy struct {
	Alpha float64 // pin-balance cap, default 1.1
	Seed  int64
}

// Name implements Partitioner.
func (Greedy) Name() string { return "Greedy" }

// Partition implements Partitioner.
func (gr Greedy) Partition(h *Hypergraph, numParts int) (*Partitioning, error) {
	if numParts <= 0 {
		return nil, fmt.Errorf("hyperpart: numParts must be positive, got %d", numParts)
	}
	alpha := gr.Alpha
	if alpha == 0 {
		alpha = 1.1
	}
	capPins := int64(alpha * float64(h.NumPins()) / float64(numParts))
	if capPins < 1 {
		capPins = 1
	}
	sets := make([]bitset.Set, h.NumVertices())
	for v := range sets {
		sets[v] = bitset.New(numParts)
	}
	pinCounts := make([]int64, numParts)
	p := &Partitioning{NumParts: numParts, Owner: make([]int32, h.NumHyperedges())}
	rng := rand.New(rand.NewSource(gr.Seed))
	for _, i := range rng.Perm(h.NumHyperedges()) {
		pins := h.Pins(int32(i))
		best := int32(-1)
		bestScore := math.Inf(-1)
		for q := 0; q < numParts; q++ {
			if pinCounts[q]+int64(len(pins)) > capPins && !allAtCap(pinCounts, capPins) {
				continue
			}
			var gain float64
			for _, pin := range pins {
				if sets[pin].Has(q) {
					gain++
				}
			}
			load := float64(pinCounts[q]) / float64(capPins)
			if s := gain - float64(len(pins))*load*load; s > bestScore {
				bestScore = s
				best = int32(q)
			}
		}
		if best == -1 {
			best = leastLoaded(pinCounts)
		}
		p.Owner[i] = best
		pinCounts[best] += int64(len(pins))
		for _, pin := range pins {
			sets[pin].Set(int(best))
		}
	}
	return p, nil
}

func allAtCap(counts []int64, cap int64) bool {
	for _, c := range counts {
		if c < cap {
			return false
		}
	}
	return true
}

func leastLoaded(counts []int64) int32 {
	best := int32(0)
	for q := 1; q < len(counts); q++ {
		if counts[q] < counts[best] {
			best = int32(q)
		}
	}
	return best
}

// NE is the neighbor-expansion analog on hypergraphs: all |P| parts grow in
// round-robin "parallel" fashion from random seed hyperedges; each step a
// part claims the unclaimed incident hyperedge (sharing ≥1 pin with the
// part's covered vertices) that adds the fewest new replicas, re-seeding
// randomly when its frontier empties — exactly the §3.1 expansion with
// hyperedges in place of edges.
type NE struct {
	Alpha float64 // pin-balance cap, default 1.1
	Seed  int64
}

// Name implements Partitioner.
func (NE) Name() string { return "H-NE" }

// frontierItem scores a candidate hyperedge for a part.
type frontierItem struct {
	he    int32
	score int32 // new pins the claim would add (lower = better)
}

type frontierHeap []frontierItem

func (h frontierHeap) Len() int { return len(h) }
func (h frontierHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score < h[j].score
	}
	return h[i].he < h[j].he
}
func (h frontierHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *frontierHeap) Push(x any)   { *h = append(*h, x.(frontierItem)) }
func (h *frontierHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Partition implements Partitioner.
func (ne NE) Partition(h *Hypergraph, numParts int) (*Partitioning, error) {
	return ne.PartitionCtx(context.Background(), h, numParts)
}

// PartitionCtx is the expansion core; it polls ctx once per round-robin
// expansion round.
func (ne NE) PartitionCtx(ctx context.Context, h *Hypergraph, numParts int) (*Partitioning, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if numParts <= 0 {
		return nil, fmt.Errorf("hyperpart: numParts must be positive, got %d", numParts)
	}
	alpha := ne.Alpha
	if alpha == 0 {
		alpha = 1.1
	}
	m := h.NumHyperedges()
	if m == 0 {
		return &Partitioning{NumParts: numParts}, nil
	}
	capPins := int64(alpha * float64(h.NumPins()) / float64(numParts))
	if capPins < 1 {
		capPins = 1
	}
	rng := rand.New(rand.NewSource(ne.Seed))
	owner := make([]int32, m)
	for i := range owner {
		owner[i] = -1
	}
	covered := make([]bitset.Set, h.NumVertices())
	for v := range covered {
		covered[v] = bitset.New(numParts)
	}
	pinCounts := make([]int64, numParts)
	frontiers := make([]frontierHeap, numParts)
	remaining := int64(m)
	seedCursor := 0

	newPins := func(he int32, q int) int32 {
		var c int32
		for _, pin := range h.Pins(he) {
			if !covered[pin].Has(q) {
				c++
			}
		}
		return c
	}
	claim := func(he int32, q int) {
		owner[he] = int32(q)
		remaining--
		pinCounts[q] += int64(len(h.Pins(he)))
		for _, pin := range h.Pins(he) {
			if covered[pin].Has(q) {
				continue
			}
			covered[pin].Set(q)
			// New covered vertex: its other incident hyperedges join q's
			// frontier.
			for _, inc := range h.Incident(pin) {
				if owner[inc] == -1 && inc != he {
					heap.Push(&frontiers[q], frontierItem{he: inc, score: newPins(inc, q)})
				}
			}
		}
	}
	seed := func(q int) bool {
		// Rotating scan for an unclaimed hyperedge, starting at a random
		// offset (the paper's getRandomVertex analog).
		if remaining == 0 {
			return false
		}
		start := (seedCursor + rng.Intn(m)) % m
		for k := 0; k < m; k++ {
			he := int32((start + k) % m)
			if owner[he] == -1 {
				seedCursor = int(he) + 1
				claim(he, q)
				return true
			}
		}
		return false
	}

	// Round-robin parallel expansion: one claim per part per round, exactly
	// the single-expansion schedule of Algorithm 1.
	active := make([]bool, numParts)
	for q := range active {
		active[q] = true
	}
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		progressed := false
		for q := 0; q < numParts; q++ {
			if !active[q] {
				continue
			}
			if pinCounts[q] >= capPins {
				active[q] = false
				continue
			}
			// Pop the lowest-new-replica frontier hyperedge, skipping stale
			// (already claimed) entries and rescoring stale scores lazily.
			var claimed bool
			for frontiers[q].Len() > 0 {
				it := heap.Pop(&frontiers[q]).(frontierItem)
				if owner[it.he] != -1 {
					continue
				}
				if s := newPins(it.he, q); s < it.score {
					// Coverage grew since this entry was scored; requeue with
					// the fresher (lower) score — lazy rescoring keeps the
					// pop order faithful to the current frontier.
					heap.Push(&frontiers[q], frontierItem{he: it.he, score: s})
					continue
				}
				claim(it.he, q)
				claimed = true
				break
			}
			if !claimed {
				if !seed(q) {
					active[q] = false
					continue
				}
			}
			progressed = true
		}
		if !progressed {
			// All parts capped with hyperedges left: sweep the leftovers to
			// the least pin-loaded parts (what dne's closing hand-off does for
			// edges; README.md, "Deviations from Algorithms 1–4").
			for he := int32(0); he < int32(m); he++ {
				if owner[he] == -1 {
					q := leastLoaded(pinCounts)
					claim(he, int(q))
				}
			}
		}
	}
	return &Partitioning{NumParts: numParts, Owner: owner}, nil
}
