package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/store"
)

// One query-handler family answers both route pairs: /api/query/* against a
// resident store and /api/live/query/* against the live graph's current
// epoch. The routes differ only in how they find the querier and what they
// echo back (the store id or the epoch sequence); parsing, deadlines and the
// answers themselves are shared.

// maxKHop bounds traversal depth per query.
const maxKHop = 32

// maxNeighborsBatch bounds the vertices of one neighbors query.
const maxNeighborsBatch = 1024

// querier is what a query is answered from: a resident *store.Store, or the
// *store.Epoch a live request pinned.
type querier interface {
	Neighbors(v graph.Vertex) ([]graph.Vertex, error)
	Replicas(v graph.Vertex) []int32
	KHop(ctx context.Context, v graph.Vertex, k int) (*store.KHopResult, error)
}

// VertexNeighbors is one vertex's answer.
type VertexNeighbors struct {
	Vertex    uint32   `json:"vertex"`
	Degree    int64    `json:"degree"`
	Neighbors []uint32 `json:"neighbors"`
}

// batchVertices is the batch a neighbors request names: exactly one of the
// single-vertex and batch forms, at most maxNeighborsBatch vertices.
func batchVertices(vertex *uint32, vertices []uint32) ([]uint32, int, error) {
	switch {
	case vertex != nil && len(vertices) > 0:
		return nil, http.StatusBadRequest, fmt.Errorf("supply vertex or vertices, not both")
	case vertex != nil:
		return []uint32{*vertex}, http.StatusOK, nil
	case len(vertices) > maxNeighborsBatch:
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("%d vertices exceed batch cap %d", len(vertices), maxNeighborsBatch)
	case len(vertices) > 0:
		return vertices, http.StatusOK, nil
	}
	return nil, http.StatusBadRequest, fmt.Errorf("supply vertex or vertices")
}

// neighborsAnswer is one resolved neighbors batch and the replica fetches
// beyond the first that it paid.
type neighborsAnswer struct {
	results []VertexNeighbors
	hops    int64
	elapsed time.Duration
}

// answerNeighbors resolves the batch named by vertex/vertices against q,
// checking ctx between vertices.
func answerNeighbors(ctx context.Context, q querier, vertex *uint32, vertices []uint32) (*neighborsAnswer, int, error) {
	vs, status, err := batchVertices(vertex, vertices)
	if err != nil {
		return nil, status, err
	}
	start := time.Now()
	ans := &neighborsAnswer{results: make([]VertexNeighbors, 0, len(vs))}
	for _, v := range vs {
		if err := ctx.Err(); err != nil {
			return nil, ctxStatus(err, http.StatusInternalServerError), err
		}
		ns, err := q.Neighbors(v)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		if ns == nil {
			ns = []graph.Vertex{} // an isolated vertex answers [], not null
		}
		ans.hops += int64(max(len(q.Replicas(v))-1, 0))
		ans.results = append(ans.results, VertexNeighbors{Vertex: v, Degree: int64(len(ns)), Neighbors: ns})
	}
	ans.elapsed = time.Since(start)
	return ans, http.StatusOK, nil
}

// KHopAnswer is a k-hop traversal and its serving cost, as both query
// families report it.
type KHopAnswer struct {
	Source         uint32   `json:"source"`
	K              int      `json:"k"`
	Visited        int      `json:"visited"`
	Vertices       []uint32 `json:"vertices"`
	Depths         []int32  `json:"depths"`
	LevelSizes     []int64  `json:"levelSizes"`
	CrossShardHops int64    `json:"crossShardHops"`
	ShardTasks     int64    `json:"shardTasks"`
	ElapsedMS      float64  `json:"elapsedMs"`

	elapsed time.Duration
}

// answerKHop runs the k-hop traversal from v against q under ctx.
func answerKHop(ctx context.Context, q querier, v uint32, k int) (*KHopAnswer, int, error) {
	if k < 0 || k > maxKHop {
		return nil, http.StatusBadRequest, fmt.Errorf("k %d outside [0,%d]", k, maxKHop)
	}
	start := time.Now()
	res, err := q.KHop(ctx, v, k)
	if err != nil {
		return nil, ctxStatus(err, http.StatusBadRequest), err
	}
	elapsed := time.Since(start)
	return &KHopAnswer{
		Source:         v,
		K:              k,
		Visited:        len(res.Vertices),
		Vertices:       res.Vertices,
		Depths:         res.Depths,
		LevelSizes:     res.LevelSizes,
		CrossShardHops: res.CrossShardHops,
		ShardTasks:     res.ShardTasks,
		ElapsedMS:      millis(elapsed),
		elapsed:        elapsed,
	}, http.StatusOK, nil
}
