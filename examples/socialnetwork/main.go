// Socialnetwork: the paper's motivating scenario (§1) — partition a skewed
// social graph, then run PageRank, SSSP and WCC on a vertex-cut engine and
// watch partition quality turn into communication savings (Table 5).
//
//	go run ./examples/socialnetwork
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/distributedne/dne/internal/datasets"
	"github.com/distributedne/dne/internal/engine"
	"github.com/distributedne/dne/internal/methods"
	_ "github.com/distributedne/dne/internal/methods/all"
	"github.com/distributedne/dne/internal/partition"
)

func main() {
	spec := datasets.Mid()[3] // Orkut
	g := spec.Build(0)
	fmt.Printf("social graph stand-in %s: %v\n\n", spec.Name, g)

	const parts = 16
	for _, name := range []string{"random", "dne"} {
		pr, spec, err := methods.New(name, partition.NewSpec(parts, 7))
		if err != nil {
			log.Fatal(err)
		}
		res, err := pr.Partition(context.Background(), g, spec)
		if err != nil {
			log.Fatal(err)
		}
		q := res.Quality
		e := engine.New(g, res.Partitioning)

		start := time.Now()
		ranks := e.PageRank(10, 0.85)
		prTime := time.Since(start)
		prComm := e.CommBytes

		e.ResetStats()
		start = time.Now()
		dist := e.SSSP(0)
		ssspTime := time.Since(start)
		ssspComm := e.CommBytes

		e.ResetStats()
		start = time.Now()
		labels := e.WCC()
		wccTime := time.Since(start)
		wccComm := e.CommBytes

		fmt.Printf("%-6s RF=%.2f  EB=%.2f\n", pr.Name(), q.ReplicationFactor, q.EdgeBalance)
		fmt.Printf("  PageRank(10): %8v  comm %6.1f MB\n", prTime, mb(prComm))
		fmt.Printf("  SSSP:         %8v  comm %6.1f MB\n", ssspTime, mb(ssspComm))
		fmt.Printf("  WCC:          %8v  comm %6.1f MB\n\n", wccTime, mb(wccComm))

		// Keep the compiler honest about results being real.
		_ = ranks[0]
		_ = dist[0]
		_ = labels[0]
	}
	fmt.Println("The DNE rows should show several-fold lower communication at similar")
	fmt.Println("or better runtime — the paper's Table 5 effect.")
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }
