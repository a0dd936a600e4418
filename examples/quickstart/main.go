// Quickstart: partition a synthetic skewed graph with Distributed NE and
// inspect the result. This is the smallest end-to-end use of the library:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/gen"
)

func main() {
	// 1. A skewed graph: RMAT with 2^14 vertices and ~16 edges per vertex
	//    (the Graph500 parameters the paper's synthetic evaluation uses).
	g := gen.RMAT(14, 16, 42)
	fmt.Printf("input: %v (max degree %d)\n", g, g.MaxDegree())

	// 2. Partition it 8 ways with the paper's default parameters
	//    (imbalance α = 1.1, multi-expansion λ = 0.1).
	cfg := dne.DefaultConfig()
	cfg.Seed = 42
	res, err := dne.PartitionCtx(context.Background(), g, 8, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Inspect quality and execution metrics.
	q := res.Partitioning.Measure(g)
	fmt.Printf("replication factor: %.3f (lower is better; random hashing gives ~%0.1f)\n",
		q.ReplicationFactor, 6.0)
	fmt.Printf("edge balance: %.3f (target α = 1.1; multi-expansion batches can overshoot slightly)\n", q.EdgeBalance)
	fmt.Printf("supersteps: %d   inter-machine traffic: %.1f MB   mem score: %.1f B/edge\n",
		res.Iterations, float64(res.CommBytes)/(1<<20), res.MemScore(g.NumEdges()))

	// 4. The per-edge assignment is in res.Partitioning.Owner, aligned with
	//    g.Edges(); per-partition sizes:
	fmt.Println("partition sizes:", res.Partitioning.EdgeCounts())

	// 5. The communication is fully accounted, so the network time a real
	//    cluster would add is estimable under an alpha-beta cost model.
	tenGbE := cluster.CostModel{Latency: 50 * time.Microsecond, BandwidthBytesPerSec: 1.25e9}
	fmt.Printf("simulated network time: %v (InfiniBand EDR) / %v (10GbE)\n",
		res.SimulatedNetworkTime(cluster.InfiniBandEDR(), 8),
		res.SimulatedNetworkTime(tenGbE, 8))
}
