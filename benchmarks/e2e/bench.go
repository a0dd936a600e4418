package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one metric of BENCHMARK.json. The smoke test asserts that
// these tables and that file list the same names, units and directions.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"rf", "ratio", "lower", 0.05},
	{"edge_balance", "ratio", "lower", 0.06},
	{"alloc_mb", "MB", "lower", 0.25},
	{"heap_peak_mb", "MB", "lower", 0.10},
}

// perLayer are the metrics of single layers, measured on traced reps. A
// workload reports 0 for a layer it does not run.
var perLayer = []metricDef{
	{Name: "partition_edges_per_s", Unit: "edges/s", Better: "higher"},
	{Name: "comm_mb", Unit: "MB", Better: "lower"},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher"},
	{Name: "neighbors_p50_us", Unit: "us", Better: "lower"},
	{Name: "neighbors_p99_us", Unit: "us", Better: "lower"},
	{Name: "khop2_p50_us", Unit: "us", Better: "lower"},
	{Name: "khop2_p99_us", Unit: "us", Better: "lower"},
	{Name: "ingest_events_per_s", Unit: "1/s", Better: "higher"},

	{Name: "graph.shard_read_s", Unit: "s", Better: "lower"},
	{Name: "graph.bytes_read_mb", Unit: "MB", Better: "lower"},
	{Name: "graph.disk_bytes_per_edge", Unit: "B/edge", Better: "lower"},
	{Name: "graph.source_next_s", Unit: "s", Better: "lower"},
	{Name: "graph.source_passes", Unit: "count", Better: "lower"},
	{Name: "graph.scan_edges_per_s", Unit: "edges/s", Better: "higher"},

	{Name: "methods.assign_self_s", Unit: "s", Better: "lower"},
	{Name: "methods.peak_accounted_mb", Unit: "MB", Better: "lower"},

	{Name: "cluster.send_s_max", Unit: "s", Better: "lower"},
	{Name: "cluster.send_s_mean", Unit: "s", Better: "lower"},
	{Name: "cluster.recv_wait_s_max", Unit: "s", Better: "lower"},
	{Name: "cluster.recv_wait_s_mean", Unit: "s", Better: "lower"},
	{Name: "cluster.dial_s", Unit: "s", Better: "lower"},
	{Name: "cluster.msgs", Unit: "count", Better: "lower"},
	{Name: "cluster.proto_mb", Unit: "MB", Better: "lower"},
	{Name: "cluster.coll_mb", Unit: "MB", Better: "lower"},
	{Name: "cluster.bytes_per_msg", Unit: "B", Better: "higher"},

	{Name: "dne.partition_s", Unit: "s", Better: "lower"},
	{Name: "dne.compute_self_s", Unit: "s", Better: "lower"},
	{Name: "dne.rank_skew", Unit: "ratio", Better: "lower"},
	{Name: "dne.cold_partition_s", Unit: "s", Better: "lower"},
	{Name: "dne.supersteps", Unit: "count", Better: "lower"},
	{Name: "dne.us_per_superstep", Unit: "us", Better: "lower"},
	{Name: "dne.swept_edges", Unit: "count", Better: "lower"},
	{Name: "dne.accounted_mem_bytes_per_edge", Unit: "B/edge", Better: "lower"},
	{Name: "dne.wasted_selection_ratio", Unit: "ratio", Better: "lower"},

	{Name: "store.build_s", Unit: "s", Better: "lower"},
	{Name: "store.hops_per_query", Unit: "count", Better: "lower"},
	{Name: "store.shard_tasks_per_query", Unit: "count", Better: "lower"},
	{Name: "store.touch_imbalance", Unit: "ratio", Better: "lower"},

	{Name: "live.apply_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "live.apply_max_ms", Unit: "ms", Better: "lower"},
	{Name: "live.compactions", Unit: "count", Better: "lower"},
	{Name: "live.overlay_edges_max", Unit: "count", Better: "lower"},

	{Name: "engine.build_s", Unit: "s", Better: "lower"},
	{Name: "engine.pagerank_s", Unit: "s", Better: "lower"},
	{Name: "engine.wcc_s", Unit: "s", Better: "lower"},
	{Name: "engine.workload_balance", Unit: "ratio", Better: "lower"},

	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
}

// Span names. Self time of a span is its duration minus its children's.
const (
	spanRank        = "bench.rank"
	spanShardRead   = "graph.ReadShardDir"
	spanDial        = "cluster.DialTCP"
	spanPartition   = "dne.PartitionShards"
	spanSend        = "cluster.send"
	spanRecvWait    = "cluster.recv_wait"
	spanBarrierWait = "cluster.barrier_wait"
	spanSourcePass  = "graph.source_pass"
	spanSourceNext  = "graph.source_next"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64 // how long the reps after the warm-up rep may take
	trace    bool
	workdir  string // everything the run writes goes under it
}

// A workload builds an input from a seed and runs reps on it.
type workload interface {
	// setup builds the input of seed in dir, replacing the one before.
	setup(ctx context.Context, dir string, seed int64) error
	// rep runs the timed region once through timed, then checks the outputs.
	// tr is nil on an untraced rep, which must hand the layers bare
	// communicators and sources. Reps on one input must agree bit for bit.
	rep(ctx context.Context, dir string, tr *tracer) (*repResult, error)
	// input describes the current input for the result header.
	input() inputSizes
}

type inputSizes struct {
	Scale     int   `json:"rmat_scale"`
	Vertices  int64 `json:"vertices"`
	Edges     int64 `json:"edges"`
	DiskBytes int64 `json:"esz1_bytes,omitempty"`
	Events    int   `json:"events,omitempty"`
	Queries   int   `json:"queries_per_rep,omitempty"`
}

// repResult is what one rep measured.
type repResult struct {
	vals   map[string]float64
	ops    int      // queries, applied batches or whole partition runs
	failed int      // ops with a wrong answer, and failed output checks
	errs   []string // the first few failures, for the log
}

func (r *repResult) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// timed runs region as the timed part of a rep and returns a result holding
// its wall time and memory cost.
func timed(region func() error) (*repResult, error) {
	m := startMeter()
	t0 := time.Now()
	err := region()
	wall := time.Since(t0)
	alloc, peak := m.finish()
	if err != nil {
		return nil, err
	}
	return &repResult{vals: map[string]float64{
		"wall_s": seconds(wall), "alloc_mb": alloc, "heap_peak_mb": peak,
	}}, nil
}

// stat is one metric of one run, over the run's timed reps. Mean is the
// run's value of the metric: every rep has an input of its own, and the mean
// over inputs is steadier from run to run than their median when inputs
// fall into two groups, as the superstep counts of DNE on 4 parts do.
type stat struct {
	metricDef
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// runResult is everything one run found; the contract line is cut from it.
type runResult struct {
	Header    header     `json:"header"`
	Workload  string     `json:"workload"`
	Why       string     `json:"why"`
	Seed      int64      `json:"seed"`
	Traced    bool       `json:"traced"`
	Input     inputSizes `json:"first_input"`
	Attempted int        `json:"ops_attempted"`
	Failed    int        `json:"ops_failed"`
	Errors    []string   `json:"errors,omitempty"`
	Metrics   []stat     `json:"metrics"`
	Claim     *string    `json:"claim"` // this benchmark claims no gain
}

// inputSeed is the seed of a run's i-th input.
func inputSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// maxTraceOverhead is the limit of bench.trace_overhead: from it on the
// wrappers cost too much for the per-layer times to be the layers'.
const maxTraceOverhead = 1.05

// runWorkload runs a discarded warm-up rep and then timed reps of def until
// cfg.seconds are used, at least def.minInputs of them, and summarises them.
// Every rep sets up an input of its own from the run's seed, outside its
// timed region; the time that takes is a sample of setup_s. The first timed
// rep reuses the warm-up's input, so that two reps on one input are
// compared. With tracing on, each input gets a bare and a traced rep: the
// traced ones give the per-layer metrics and a Chrome trace, the pairs give
// the tracing overhead.
func runWorkload(ctx context.Context, cfg config, def workloadDef, log io.Writer) (*runResult, error) {
	tmp, err := os.MkdirTemp(filepath.Join(cfg.workdir, "tmp"), def.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	w := def.new(def.scale)
	var dir string
	// setup builds input i in a directory of its own and returns the time.
	setup := func(i int) (float64, error) {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return 0, err
			}
		}
		dir = filepath.Join(tmp, fmt.Sprintf("input-%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := w.setup(ctx, dir, inputSeed(cfg.seed, i)); err != nil {
			return 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		return seconds(time.Since(t0)), nil
	}

	res := &runResult{Header: readHeader(), Workload: def.name, Why: def.why, Seed: cfg.seed, Traced: cfg.trace}
	vals := make(map[string][]float64)
	// add counts a rep's ops and, when keep is set, keeps its measurements.
	add := func(r *repResult, keep bool) {
		res.Attempted += r.ops
		res.Failed += r.failed
		res.Errors = append(res.Errors, r.errs...)
		if keep {
			for name, v := range r.vals {
				vals[name] = append(vals[name], v)
			}
		}
	}

	if _, err := setup(0); err != nil {
		return nil, err
	}
	res.Input = w.input()
	cold, err := w.rep(ctx, dir, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up rep: %w", err)
	}
	if v, ok := cold.vals["dne.partition_s"]; ok {
		vals["dne.cold_partition_s"] = []float64{v}
	}

	minInputs := def.minInputs
	if cfg.trace {
		// Each input takes two reps, so half as many make a run; an even
		// number, so that the traced rep runs first as often as second.
		minInputs = (minInputs + 3) / 4 * 2
	}
	var lastTrace *tracer
	var overhead [2][]float64 // traced over bare wall_s, by which of the two ran first
	start := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for n := 0; ; n++ {
		t0 := time.Now()
		if n > 0 {
			s, err := setup(n)
			if err != nil {
				return nil, err
			}
			vals["setup_s"] = append(vals["setup_s"], s)
		}
		pair := []*tracer{nil}
		if cfg.trace {
			lastTrace = newTracer(def.name, n)
			pair = []*tracer{nil, lastTrace}
			if n%2 == 1 { // alternate which of the two runs first
				pair[0], pair[1] = pair[1], pair[0]
			}
		}
		var bareWall, tracedWall float64
		for _, tr := range pair {
			r, err := w.rep(ctx, dir, tr)
			if err != nil {
				return nil, fmt.Errorf("rep %d: %w", n, err)
			}
			add(r, (tr != nil) == cfg.trace)
			if tr != nil {
				tracedWall = r.vals["wall_s"]
			} else {
				bareWall = r.vals["wall_s"]
			}
		}
		if cfg.trace {
			overhead[n%2] = append(overhead[n%2], tracedWall/bareWall)
		}
		// Stop before an input that would overrun, judging by the last one,
		// and with tracing on only after an even number of them.
		if n+1 >= minInputs && (!cfg.trace || n%2 == 1) && time.Since(start)+time.Since(t0) > budget {
			break
		}
	}
	if cfg.trace {
		// The first rep on a fresh input is the slower one, whichever it is.
		// The median ratio of each order is free of outliers, and the
		// geometric mean of the two medians of the order.
		_, tracedSecond, _ := quartiles(overhead[0])
		_, tracedFirst, _ := quartiles(overhead[1])
		over := math.Sqrt(tracedFirst * tracedSecond)
		vals["bench.trace_overhead"] = []float64{over}
		if over >= maxTraceOverhead {
			fmt.Fprintf(log, "WARNING: bench.trace_overhead %.3f is not below %.2f: the per-layer times include the wrappers' cost\n", over, maxTraceOverhead)
		}
		if err := writeTrace(cfg, lastTrace); err != nil {
			return nil, err
		}
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		q1, med, q3 := quartiles(vals[d.Name])
		res.Metrics = append(res.Metrics, stat{
			metricDef: d, Mean: mean(vals[d.Name]), Median: med, Q1: q1, Q3: q3, N: len(vals[d.Name]),
		})
	}
	for _, e := range res.Errors {
		fmt.Fprintln(log, "FAILED:", e)
	}
	return res, nil
}

func outDir(cfg config) (string, error) {
	dir := filepath.Join(cfg.workdir, "out")
	return dir, os.MkdirAll(dir, 0o755)
}

func writeTrace(cfg config, tr *tracer) error {
	dir, err := outDir(cfg)
	if err != nil {
		return err
	}
	return tr.writeChrome(filepath.Join(dir, cfg.workload+".trace.json"))
}

// contractLine is the last line of a run's standard output.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) contract() contractLine {
	line := contractLine{
		Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]contractValue, len(r.Metrics)),
	}
	for _, s := range r.Metrics {
		line.Metrics[s.Name] = contractValue{Value: s.Mean, Unit: s.Unit}
	}
	return line
}

// report prints the run for a reader, saves it in full under the work
// directory, and ends with the contract line.
func (r *runResult) report(cfg config, out io.Writer) error {
	fmt.Fprintf(out, "workload %s seed %d traced %v: %s\n", r.Workload, r.Seed, r.Traced, r.Why)
	fmt.Fprintf(out, "%s, go %s, %s, nproc %d, GOMAXPROCS %d, GOGC %d, GOMEMLIMIT %d\n",
		r.Header.Commit, r.Header.GoVersion, r.Header.CPU, r.Header.NumCPU,
		r.Header.GOMAXPROCS, r.Header.GOGC, r.Header.GOMEMLIMIT)
	fmt.Fprintf(out, "first input: %+v\n", r.Input)
	fmt.Fprintf(out, "ops_attempted %d ops_failed %d\n", r.Attempted, r.Failed)
	fmt.Fprintf(out, "%-34s %14s %14s %14s %14s %3s  %-8s %s\n", "metric", "mean", "median", "q1", "q3", "n", "unit", "bound")
	for _, s := range r.Metrics {
		bound := ""
		if s.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*s.Bound)
		}
		fmt.Fprintf(out, "%-34s %14.6g %14.6g %14.6g %14.6g %3d  %-8s %s\n", s.Name, s.Mean, s.Median, s.Q1, s.Q3, s.N, s.Unit, bound)
	}
	dir, err := outDir(cfg)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, btoi(r.Traced))
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(r.contract())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
