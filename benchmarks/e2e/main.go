// Command e2e is this repository's benchmark: five named workloads that run
// the pipeline end to end, check every output, and report end-to-end metrics
// (tracing off) and per-layer metrics (tracing on). BENCHMARK.json at the
// root of the repository is its contract; README.md explains the choices.
//
//	e2e --workload dne-tcp-p4 --seed 42 --seconds 20 --trace 0
//	e2e -suite -seeds 10 -out results/set-a.json
//	e2e -compare results/set-a.json results/set-b.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runLimit ends a run that hangs, within the 180 seconds a run may take.
const runLimit = 170 * time.Second

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	var cfg config
	trace := fs.Int("trace", 0, "1 alternates bare and traced reps and reports the per-layer metrics")
	fs.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("one of %v", workloadNames()))
	fs.Int64Var(&cfg.seed, "seed", 42, "seed of every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "time for the reps after the warm-up rep")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for scratch data, results and traces")
	suite := fs.Bool("suite", false, "run every workload on -seeds seeds, each run a process, and write a result set to -out")
	seeds := fs.Int("seeds", 10, "with -suite: seeds per workload, counted up from -seed")
	out := fs.String("out", "", "with -suite: the result set to write")
	compare := fs.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0

	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "e2e: -compare takes two result sets")
			return 2
		}
		var regressed bool
		if regressed, err = compareSets(fs.Arg(0), fs.Arg(1), os.Stdout); err == nil && regressed {
			return 1
		}
	case *suite:
		err = runSuite(cfg, *seeds, *out)
	default:
		var ok bool
		if ok, err = runOne(cfg); err == nil && !ok {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	return 0
}

// runOne is one run under the driver's contract. It reports whether every
// output was correct.
func runOne(cfg config) (bool, error) {
	if err := os.MkdirAll(filepath.Join(cfg.workdir, "tmp"), 0o755); err != nil {
		return false, err
	}
	pinRuntime()
	time.AfterFunc(runLimit, func() {
		fmt.Fprintln(os.Stderr, "e2e: run exceeded", runLimit)
		os.Exit(3)
	})
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return false, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
	}
	res, err := runWorkload(context.Background(), cfg, def, os.Stderr)
	if err != nil {
		return false, err
	}
	return res.Failed == 0, res.report(cfg, os.Stdout)
}
