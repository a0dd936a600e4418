package main

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/store"
)

// workloadDef is one named workload. The names are fixed: BENCHMARK.json
// and later issues cite them.
type workloadDef struct {
	name      string
	why       string
	scale     int // RMAT scale of the generated graph
	minInputs int // inputs a run covers even when its seconds are used up
	new       func(scale int) workload
}

// Every graph is RMAT with this edge factor, generated from the seed. Every
// rep has an input of its own, so the scales are small enough for a run to
// hold several: what a partitioner does depends on the graph it meets, and
// only a run over several inputs repeats from seed to seed. DNE on 4 parts
// falls into two groups of inputs, one taking twice the supersteps of the
// other, and over TCP the wall time follows. dne-tcp-p4 therefore covers at
// least 20 inputs, about 30 seconds of them at scale 16, the largest scale
// at which the driver's time holds that many (see README.md).
const (
	edgeFactor = 16
	minInputs  = 5
)

var workloads = []workloadDef{
	{"dne-tcp-p4",
		"4 ranks read ESZ1 shards and run DNE over the gob-TCP transport, then build the store: the deployed path, where cluster does most of the work",
		16, 20, func(scale int) workload { return &dneTCP{scale: scale} }},
	{"dne-mem-p16",
		"DNE with 16 parts over the in-memory transport, then PageRank and WCC: dne compute dominates and TCP is bypassed, the control for dne-tcp-p4",
		16, minInputs, func(scale int) workload { return &dneMem{scale: scale} }},
	{"stream-hdrf",
		"HDRF streamed from 16 ESZ1 files: graph decode and shuffle plus the stream runner do all the work, dne, cluster and store none",
		17, minInputs, func(scale int) workload { return &streamHDRF{scale: scale} }},
	{"serve-read",
		"2 closed-loop clients run a fixed 70/30 Neighbors/KHop mix on a built store: read-only use of store, partitioners and transports idle",
		15, minInputs, func(scale int) workload { return &serveRead{scale: scale} }},
	{"live-mixed",
		"1 writer ingests a churn stream with auto-compaction, timed, beside 1 reader whose query rate on the live epochs is the work rate: writes compete with reads",
		15, minInputs, func(scale int) workload { return &liveMixed{scale: scale} }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// dneConfig is the paper's setting (alpha 1.1, lambda 0.1) with the seed.
func dneConfig(seed int64) dne.Config {
	cfg := dne.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// writeShards writes g as count canonical ESZ1 files under dir and returns
// their total size.
func writeShards(dir string, g *graph.Graph, count int) (int64, error) {
	if err := graph.WriteCanonicalShardsCompressed(dir, g, count); err != nil {
		return 0, err
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.esz"))
	if err != nil {
		return 0, err
	}
	var size int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		size += fi.Size()
	}
	return size, nil
}

func rmat(scale int, seed int64) *graph.Graph { return gen.RMAT(scale, edgeFactor, seed) }

// The query mix of the two serving workloads: 70 % Neighbors, 30 % two-hop
// KHop, on uniformly random vertices.
const (
	khopShare    = 0.3
	khopDepth    = 2
	checkedPerOp = 500 // answers per rep the oracle checks
)

type query struct {
	khop bool
	v    uint32 // taken modulo the vertex count when the query is issued
}

func queryMix(n int, seed int64) []query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]query, n)
	for i := range qs {
		qs[i] = query{khop: rng.Float64() < khopShare, v: rng.Uint32()}
	}
	return qs
}

// answer is a query's result, kept for the oracle.
type answer struct {
	q    query
	v    graph.Vertex
	nbrs []graph.Vertex
	khop *store.KHopResult
	err  error
}

// client is one closed-loop caller: it issues its queries one after the
// other and times each.
type client struct {
	neighborsUS []float64
	khopUS      []float64
	hops, tasks int64 // summed over KHop answers
	answers     []answer
	queries     int
	errs        []error // queries that returned an error
}

// issue runs q against s, keeps the latency, and keeps the answer of every
// keepEvery-th query.
func (c *client) issue(ctx context.Context, s querier, q query, numVertices uint32, keepEvery int) {
	v := graph.Vertex(q.v % numVertices)
	a := answer{q: q, v: v}
	t0 := time.Now()
	if q.khop {
		a.khop, a.err = s.KHop(ctx, v, khopDepth)
		c.khopUS = append(c.khopUS, micros(time.Since(t0)))
		if a.khop != nil {
			c.hops += a.khop.CrossShardHops
			c.tasks += a.khop.ShardTasks
		}
	} else {
		a.nbrs, a.err = s.Neighbors(v)
		c.neighborsUS = append(c.neighborsUS, micros(time.Since(t0)))
	}
	if a.err != nil {
		c.errs = append(c.errs, a.err)
	} else if c.queries%keepEvery == 0 {
		c.answers = append(c.answers, a)
	}
	c.queries++
}

// check counts in r the queries that failed and, comparing the kept answers
// with g, those answered wrongly.
func (c *client) check(g *graph.Graph, r *repResult) {
	for _, err := range c.errs {
		r.fail(err)
	}
	for _, a := range c.answers {
		var err error
		if a.q.khop {
			err = checkKHop(g, a.v, khopDepth, a.khop)
		} else {
			err = checkNeighbors(g, a.v, a.nbrs)
		}
		if err != nil {
			r.fail(err)
		}
	}
}

// latencyVals folds the clients' samples into the per-kind latency metrics
// of one rep: exact percentiles of the sorted samples.
func latencyVals(r *repResult, clients []*client, wall time.Duration) {
	var nb, kh []float64
	queries := 0
	for _, c := range clients {
		nb = append(nb, c.neighborsUS...)
		kh = append(kh, c.khopUS...)
		queries += c.queries
	}
	slices.Sort(nb)
	slices.Sort(kh)
	r.vals["neighbors_p50_us"] = percentile(nb, 50)
	r.vals["neighbors_p99_us"] = percentile(nb, 99)
	r.vals["khop2_p50_us"] = percentile(kh, 50)
	r.vals["khop2_p99_us"] = percentile(kh, 99)
	r.vals["queries_per_s"] = float64(queries) / seconds(wall)
	r.ops += queries
}

// runAll runs fn(0..n-1) on n goroutines and returns the first error by index.
func runAll(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
