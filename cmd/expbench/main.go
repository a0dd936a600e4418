// Command expbench regenerates the paper's tables and figures.
//
// Usage:
//
//	expbench -list
//	expbench -exp fig8 [-shift 2] [-seed 7] [-pr-iters 100] [-quick]
//	expbench -exp all
//
// Each experiment prints the same rows/series the paper reports (§5–§7), at
// the reduced default scales of the synthetic stand-ins in internal/datasets
// (README.md, "Benchmarks and experiments"). -shift scales the stand-ins by
// powers of two toward (or away from) paper size.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"github.com/distributedne/dne/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list    = flag.Bool("list", false, "list experiment ids")
		shift   = flag.Int("shift", 0, "scale datasets by 2^shift vertices")
		seed    = flag.Int64("seed", 42, "random seed")
		prIters = flag.Int("pr-iters", 20, "PageRank iterations for table5 (paper: 100)")
		quick   = flag.Bool("quick", false, "restrict sweeps to fewer points")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range experiments.All {
			fmt.Printf("  %-11s %s\n", e.ID, e.Desc)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := experiments.Options{
		Ctx:     ctx,
		Shift:   *shift,
		Seed:    *seed,
		PRIters: *prIters,
		Quick:   *quick,
		Out:     os.Stdout,
	}
	run := func(id string) bool {
		for _, e := range experiments.All {
			if e.ID == id {
				if err := e.Run(opts); err != nil {
					fmt.Fprintf(os.Stderr, "expbench: %s: %v\n", id, err)
					os.Exit(1)
				}
				return true
			}
		}
		return false
	}
	if *exp == "all" {
		for i, e := range experiments.All {
			if i > 0 {
				fmt.Println("\n============================================================")
			}
			run(e.ID)
		}
		return
	}
	if !run(*exp) {
		fmt.Fprintf(os.Stderr, "expbench: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
}
