// Comparison: run every partitioner in the repository on one skewed graph
// and print a Fig-8-style quality/performance table.
//
//	go run ./examples/comparison
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/distributedne/dne/internal/bench"
	"github.com/distributedne/dne/internal/datasets"
	"github.com/distributedne/dne/internal/methods"
	_ "github.com/distributedne/dne/internal/methods/all"
	"github.com/distributedne/dne/internal/partition"
)

func main() {
	spec := datasets.Mid()[0] // Pokec
	g := spec.Build(0)
	const parts = 32
	fmt.Printf("%s stand-in, %v, %d partitions\n\n", spec.Name, g, parts)

	// Every registered method, straight from the registry.
	t := &bench.Table{Header: []string{"partitioner", "RF", "edge-bal", "vert-bal", "time"}}
	for _, name := range methods.Names() {
		pr, spec, err := methods.New(name, partition.NewSpec(parts, 1))
		if err != nil {
			log.Fatal(err)
		}
		run := bench.Execute(context.Background(), pr, g, spec)
		if run.Err != nil {
			log.Fatalf("%s: %v", pr.Name(), run.Err)
		}
		t.Add(pr.Name(), run.Quality.ReplicationFactor, run.Quality.EdgeBalance,
			run.Quality.VertexBalance, run.Elapsed)
	}
	t.Print(os.Stdout)
	fmt.Println("\nNE should have the lowest RF, D.NE close behind at a fraction of the time;")
	fmt.Println("hash methods (Rand./2D-R./DBH) sit far above — the paper's Fig. 8 / Table 4 shape.")
}
