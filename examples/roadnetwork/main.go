// Roadnetwork: the §7.7 non-skewed case. On near-planar, low-degree road
// networks the vertex partitioners (METIS-family) reach RF ≈ 1.0 and
// Distributed NE matches them, while hash-based edge partitioners stay far
// worse — the paper's argument that DNE is safe to use even off its target
// workload.
//
//	go run ./examples/roadnetwork
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/distributedne/dne/internal/bench"
	"github.com/distributedne/dne/internal/bound"
	"github.com/distributedne/dne/internal/datasets"
	_ "github.com/distributedne/dne/internal/methods/all"
	"github.com/distributedne/dne/internal/partition"
)

func main() {
	const parts = 64
	t := &bench.Table{Header: []string{"graph", "Rand.", "2D-R.", "ParMETIS", "Sheep", "D.NE", "thm1-bound"}}
	for _, rd := range datasets.Roads {
		g := rd.Build(0)
		cells := []any{fmt.Sprintf("%s %v", rd.Name, g)}
		for _, name := range []string{"random", "grid", "metis", "sheep", "dne"} {
			run := bench.Execute(context.Background(), name, g, partition.NewSpec(parts, 3))
			if run.Err != nil {
				log.Fatalf("%s: %v", name, run.Err)
			}
			cells = append(cells, run.Quality.ReplicationFactor)
		}
		cells = append(cells, bound.Theorem1(g.NumEdges(), int64(g.NumVertices()), parts))
		t.Add(cells...)
	}
	t.Print(os.Stdout)
	fmt.Println("\nExpected shape (paper Table 6): hash methods ~3.5, ParMETIS/Sheep/D.NE ~1.0.")
}
