// Analytics: partition a skewed graph with Distributed NE, then run the
// engine's applications over it — the paper's Table-5 workloads (SSSP, WCC,
// PageRank) — and read each one's result and replica-sync traffic.
//
//	go run ./examples/analytics
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"sort"

	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/engine"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

func main() {
	g := gen.RMAT(13, 16, 42)
	res, err := dne.PartitionCtx(context.Background(), g, 8, dne.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioned %v into 8 parts, RF %.3f\n\n",
		g, res.Partitioning.Measure(g).ReplicationFactor)

	e := engine.New(g, res.Partitioning)

	// Reachability + distances.
	dist := e.SSSP(0)
	reach, maxd := 0, int64(0)
	for _, d := range dist {
		if d != math.MaxInt64 {
			reach++
			if d > maxd {
				maxd = d
			}
		}
	}
	fmt.Printf("SSSP from 0: %d reachable, eccentricity %d (%d supersteps) — COM %.1f MB\n",
		reach, maxd, e.Supersteps, float64(e.CommBytes)/(1<<20))

	// Components.
	e.ResetStats()
	labels := e.WCC()
	comps := map[graph.Vertex]int{}
	for v, l := range labels {
		if g.Degree(graph.Vertex(v)) > 0 {
			comps[l]++
		}
	}
	fmt.Printf("WCC: %d components among covered vertices — COM %.1f MB\n",
		len(comps), float64(e.CommBytes)/(1<<20))

	// Influence: PageRank top-3.
	e.ResetStats()
	pr := e.PageRank(20, 0.85)
	idx := make([]int, len(pr))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return pr[idx[a]] > pr[idx[b]] })
	fmt.Printf("PageRank top-3: v%d (%.5f), v%d (%.5f), v%d (%.5f) — COM %.1f MB\n",
		idx[0], pr[idx[0]], idx[1], pr[idx[1]], idx[2], pr[idx[2]],
		float64(e.CommBytes)/(1<<20))
}
