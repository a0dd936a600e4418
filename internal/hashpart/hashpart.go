// Package hashpart implements the hash-based edge partitioners the paper
// compares against (§2.2, §7.1): Random (1D hash), Grid (2D hash), DBH
// (degree-based hashing, Xie et al. NIPS'14), Hybrid (PowerLyra's hybrid-cut)
// and the greedy/refined variants Oblivious (PowerGraph) and Hybrid-Ginger
// (PowerLyra). These are fast and scalable but low quality; they anchor the
// quality comparisons of Fig. 8 and Table 5. All but Hybrid-Ginger consume a
// graph.Source directly: the pure hash rules are stateless per edge, and the
// degree-aware ones run one counting pass first, so none of them needs the
// graph in memory.
package hashpart

import (
	"context"

	"github.com/distributedne/dne/internal/dsa"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

func hashU32(v uint32, salt uint64) uint64 { return dsa.SplitMix64(uint64(v) ^ salt) }

// checkAt polls ctx every partition.CheckEvery iterations of a loop that
// does not go through partition.EachEdge (HybridGinger's vertex scans).
func checkAt(ctx context.Context, i int) error {
	if i%partition.CheckEvery == 0 {
		return ctx.Err()
	}
	return nil
}

// streamEdges drives one pass over src, calling place(pos, u, v) with each
// edge's raw stream position and polling ctx every partition.CheckEvery
// edges. It is the shared loop under every single-pass hash rule.
func streamEdges(ctx context.Context, src graph.Source, place func(pos int64, u, v graph.Vertex)) error {
	return partition.EachEdge(ctx, src, func(pos int64, k uint64) error {
		place(pos, graph.Vertex(k>>32), graph.Vertex(k))
		return nil
	})
}

// Random is 1D hash partitioning: every edge lands on a uniformly random
// partition.
type Random struct {
	Seed uint64
}

// Stream is the streaming core: one pass, no state beyond the owner array.
func (r Random) Stream(ctx context.Context, src graph.Source, numParts int, st *partition.Stats) (*partition.Partitioning, error) {
	_, ne, err := partition.Counts(ctx, src)
	if err != nil {
		return nil, err
	}
	p := partition.New(numParts, ne)
	st.PeakMemBytes += graph.SourceBufferBytes
	err = streamEdges(ctx, src, func(pos int64, u, v graph.Vertex) {
		h := dsa.SplitMix64(uint64(u)<<32 | uint64(v) ^ r.Seed)
		p.Owner[pos] = int32(h % uint64(numParts))
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Grid is 2D hash partitioning: machines form an R×C grid and edge (u,v) is
// assigned to cell (h(u) mod R, h(v) mod C). A vertex's replicas are confined
// to one grid row and one column, bounding its replication by R+C−1.
type Grid struct {
	Seed uint64
}

// Stream is the streaming core: one pass, no state beyond the owner array.
func (gr Grid) Stream(ctx context.Context, src graph.Source, numParts int, st *partition.Stats) (*partition.Partitioning, error) {
	r := 1
	for (r+1)*(r+1) <= numParts {
		r++
	}
	c := (numParts + r - 1) / r
	_, ne, err := partition.Counts(ctx, src)
	if err != nil {
		return nil, err
	}
	p := partition.New(numParts, ne)
	st.PeakMemBytes += graph.SourceBufferBytes
	err = streamEdges(ctx, src, func(pos int64, u, v graph.Vertex) {
		gi := int(hashU32(u, 0xDEC0DE^gr.Seed) % uint64(r))
		gj := int(hashU32(v, 0xC0FFEE^gr.Seed) % uint64(c))
		p.Owner[pos] = int32((gi*c + gj) % numParts)
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// DBH is degree-based hashing (Xie et al., NIPS'14): each edge is hashed by
// its lower-degree endpoint, so high-degree vertices are cut while low-degree
// vertices stay whole. Degrees come from a counting pass over the source.
type DBH struct {
	Seed uint64
}

// Stream is the streaming core: a degree pass, then the hash pass.
func (d DBH) Stream(ctx context.Context, src graph.Source, numParts int, st *partition.Stats) (*partition.Partitioning, error) {
	deg, nv, ne, err := partition.DegreesAndCounts(ctx, src)
	if err != nil {
		return nil, err
	}
	p := partition.New(numParts, ne)
	st.PeakMemBytes += int64(nv)*4 + graph.SourceBufferBytes
	err = streamEdges(ctx, src, func(pos int64, u, v graph.Vertex) {
		pivot := u
		if deg[v] < deg[u] {
			pivot = v
		}
		p.Owner[pos] = int32(hashU32(pivot, d.Seed) % uint64(numParts))
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Hybrid is PowerLyra's hybrid-cut: edges of a low-degree vertex are grouped
// on the hash of that vertex (like an edge-cut), while edges whose chosen
// endpoint is high-degree fall back to hashing the other endpoint
// (like a vertex-cut). Threshold is the degree boundary θ (PowerLyra's
// default, which the registry declares, is 100): a vertex of degree ≤ θ is
// low-degree.
type Hybrid struct {
	Seed      uint64
	Threshold int64
}

// Stream is the streaming core: a degree pass, then the hybrid rule pass.
func (h Hybrid) Stream(ctx context.Context, src graph.Source, numParts int, st *partition.Stats) (*partition.Partitioning, error) {
	deg, nv, ne, err := partition.DegreesAndCounts(ctx, src)
	if err != nil {
		return nil, err
	}
	p := partition.New(numParts, ne)
	st.PeakMemBytes += int64(nv)*4 + graph.SourceBufferBytes
	err = streamEdges(ctx, src, func(pos int64, u, v graph.Vertex) {
		p.Owner[pos] = h.owner(deg, u, v, numParts)
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (h Hybrid) owner(deg []uint32, u, v graph.Vertex, numParts int) int32 {
	// Treat the canonical V endpoint as the "destination".
	if int64(deg[v]) <= h.Threshold {
		return int32(hashU32(v, h.Seed) % uint64(numParts))
	}
	return int32(hashU32(u, h.Seed) % uint64(numParts))
}
