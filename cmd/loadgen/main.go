// Command loadgen measures the online serving cost of edge partitionings.
// It partitions one graph with each requested method, materializes every
// result into a sharded query store (internal/store), drives an identical
// query workload against each store, and prints a table comparing
// throughput, latency percentiles, and — the point of the exercise —
// cross-shard hops per query, the serving-time analogue of the paper's
// replication factor.
//
//	loadgen -methods random,hdrf,dne -parts 8 -rmat-scale 12 -rmat-ef 8 \
//	        -queries 5000 -workers 8 -khop-ratio 0.3 -k 2
//
// A method with a lower replication factor routes fewer mirror fetches, so
// its hops/query column is correspondingly lower for the same workload.
//
// With -live, loadgen instead drives a mixed ingest+query workload against
// the live-graph subsystem (internal/live): a seeded churn stream is
// ingested incrementally, then the same query mix is measured in three
// phases — steady state, during a compaction, and during a bounded
// rebalance — reporting per-phase latency percentiles alongside the
// migration and ingest rates:
//
//	loadgen -live -parts 8 -rmat-scale 14 -rmat-ef 8 -delete-ratio 0.15
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"github.com/distributedne/dne/internal/bench"
	"github.com/distributedne/dne/internal/dynpart"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/live"
	"github.com/distributedne/dne/internal/methods"
	_ "github.com/distributedne/dne/internal/methods/all"
	"github.com/distributedne/dne/internal/obs"
	"github.com/distributedne/dne/internal/partition"
	"github.com/distributedne/dne/internal/store"
)

func main() {
	methodList := flag.String("methods", "random,hdrf,dne", "comma-separated partitioning methods to compare")
	parts := flag.Int("parts", 8, "number of shards (partitions)")
	seed := flag.Int64("seed", 1, "partitioner seed")

	graphPath := flag.String("graph", "", "binary graph file (DNE1); overrides -rmat-*")
	rmatScale := flag.Int("rmat-scale", 12, "RMAT scale (2^scale vertices) when no -graph is given")
	rmatEF := flag.Int("rmat-ef", 8, "RMAT edge factor")
	graphSeed := flag.Int64("graph-seed", 1, "RMAT generator seed")

	queries := flag.Int("queries", 5000, "queries per method")
	qps := flag.Float64("qps", 0, "target aggregate QPS (0 = closed loop)")
	workers := flag.Int("workers", 8, "concurrent query workers")
	khopRatio := flag.Float64("khop-ratio", 0.3, "fraction of queries that are k-hop traversals")
	k := flag.Int("k", 2, "traversal depth of k-hop queries")
	workloadSeed := flag.Int64("workload-seed", 7, "query-selection seed (same seed = identical workload)")
	timeout := flag.Duration("timeout", 10*time.Minute, "overall deadline")

	scrape := flag.Bool("scrape", false, "poll the in-process Prometheus exposition during each run and report server-side vs client-side p99 drift")
	scrapeInterval := flag.Duration("scrape-interval", 200*time.Millisecond, "poll period of -scrape")

	url := flag.String("url", "", "drive a remote dneserve at this base URL instead of an in-process store (first -methods entry; transient errors are retried with backoff)")
	retries := flag.Int("retries", 8, "http: max attempts per request before a transient error counts as a failure")

	liveMode := flag.Bool("live", false, "drive a mixed ingest+query workload against the live-graph subsystem")
	churnFactor := flag.Float64("churn-factor", 1.2, "live: stream length as a multiple of |E|")
	deleteRatio := flag.Float64("delete-ratio", 0.1, "live: fraction of stream events that are deletions")
	ingestBatch := flag.Int("ingest-batch", 4096, "live: events per ingest batch (one epoch per batch)")
	rebalanceBudget := flag.Int("rebalance-budget", 10000, "live: migration budget of the rebalance phase")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	g, err := loadGraph(*graphPath, *rmatScale, *rmatEF, *graphSeed)
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	if *url != "" {
		runHTTP(ctx, g, httpOptions{
			url:      strings.TrimRight(*url, "/"),
			method:   strings.TrimSpace(strings.Split(*methodList, ",")[0]),
			parts:    *parts,
			seed:     *seed,
			queries:  *queries,
			workers:  *workers,
			khop:     *khopRatio,
			k:        *k,
			wseed:    *workloadSeed,
			attempts: *retries,
		})
		return
	}
	if *liveMode {
		runLive(ctx, g, liveOptions{
			parts: *parts, seed: *seed,
			churnFactor: *churnFactor, deleteRatio: *deleteRatio,
			cfg: bench.LiveConfig{
				IngestBatch:     *ingestBatch,
				Queries:         *queries,
				Workers:         *workers,
				KHopRatio:       *khopRatio,
				KHopK:           *k,
				Seed:            *workloadSeed,
				RebalanceBudget: *rebalanceBudget,
			},
		})
		return
	}
	fmt.Printf("graph: %v, %d shards, %d queries/method (%.0f%% khop k=%d, workers=%d",
		g, *parts, *queries, *khopRatio*100, *k, *workers)
	if *qps > 0 {
		fmt.Printf(", %.0f qps", *qps)
	}
	fmt.Println(")")

	table := &bench.Table{Header: []string{
		"method", "rf", "part(s)", "build(s)", "qps", "p50(ms)", "p95(ms)", "p99(ms)", "hops/query", "imbalance",
	}}
	cfg := bench.ServingConfig{
		Queries:   *queries,
		QPS:       *qps,
		Workers:   *workers,
		KHopRatio: *khopRatio,
		KHopK:     *k,
		Seed:      *workloadSeed,
	}
	var driftLines []string
	for _, name := range strings.Split(*methodList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		spec := partition.NewSpec(*parts, *seed)
		pr, spec, err := methods.New(name, spec)
		if err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		res, err := pr.Partition(ctx, g, spec)
		if err != nil {
			log.Fatalf("loadgen: %s: partition: %v", name, err)
		}
		buildStart := time.Now()
		st, err := store.BuildPartitioning(g, res.Partitioning)
		if err != nil {
			log.Fatalf("loadgen: %s: store build: %v", name, err)
		}
		buildElapsed := time.Since(buildStart)
		// -scrape attaches a registry to the store and polls its Prometheus
		// exposition while the workload runs, exactly as a scraping
		// Prometheus would; the drift lines after the table compare the
		// bucket-derived server-side p99 with the measured client-side p99.
		var sc *scraper
		if *scrape {
			reg := obs.NewRegistry()
			st.SetObs(store.NewObs(reg))
			sc = newScraper(reg, *scrapeInterval)
		}
		rep, err := bench.RunServing(ctx, st, cfg)
		if sc != nil {
			sc.close()
			driftLines = append(driftLines, sc.driftLine(pr.Name(), rep.LatencyP99))
		}
		if err != nil {
			log.Fatalf("loadgen: %s: workload: %v", name, err)
		}
		table.Add(
			pr.Name(),
			res.Quality.ReplicationFactor,
			res.Stats.PartitionTime(),
			buildElapsed,
			fmt.Sprintf("%.0f", rep.Throughput),
			ms(rep.LatencyP50),
			ms(rep.LatencyP95),
			ms(rep.LatencyP99),
			rep.HopsPerQuery,
			rep.TouchImbalance,
		)
	}
	table.Print(os.Stdout)
	for _, line := range driftLines {
		fmt.Println(line)
	}
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000)
}

// liveOptions bundles the live-mode knobs.
type liveOptions struct {
	parts       int
	seed        int64
	churnFactor float64
	deleteRatio float64
	cfg         bench.LiveConfig
}

// runLive drives the mixed ingest+query workload of -live and prints the
// per-phase latency table.
func runLive(ctx context.Context, g *graph.Graph, opt liveOptions) {
	nEvents := int(opt.churnFactor * float64(g.NumEdges()))
	events := dynpart.Churn(g, nEvents, opt.deleteRatio, opt.seed)
	dir, err := os.MkdirTemp("", "loadgen-live-")
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	defer os.RemoveAll(dir)
	lv, err := live.Open(dir, live.Config{NumParts: opt.parts, Seed: opt.seed})
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	defer lv.Close()

	fmt.Printf("live: %v, %d partitions, %d events (%.0f%% deletes), %d queries/phase (%.0f%% khop k=%d, workers=%d)\n",
		g, opt.parts, len(events), opt.deleteRatio*100, opt.cfg.Queries,
		opt.cfg.KHopRatio*100, opt.cfg.KHopK, opt.cfg.Workers)

	rep, err := bench.RunLive(ctx, lv, events, opt.cfg)
	if err != nil {
		log.Fatalf("loadgen: live workload: %v", err)
	}

	table := &bench.Table{Header: []string{
		"phase", "queries", "qps", "p50(ms)", "p95(ms)", "p99(ms)", "max(ms)",
	}}
	for _, ph := range []bench.LivePhase{rep.Steady, rep.DuringCompaction, rep.DuringRebalance} {
		table.Add(ph.Phase, ph.Queries, fmt.Sprintf("%.0f", ph.Throughput),
			ms(ph.LatencyP50), ms(ph.LatencyP95), ms(ph.LatencyP99), ms(ph.LatencyMax))
	}
	table.Print(os.Stdout)

	fmt.Printf("ingest: %d applied in %.2fs (%.0f events/s)\n",
		rep.Applied, rep.IngestElapsed.Seconds(), rep.EventsPerSec)
	fmt.Printf("compact: %.2fs; rebalance: %.2fs, %d edges moved, %.0f migrated bytes/s\n",
		rep.CompactElapsed.Seconds(), rep.RebalanceElapsed.Seconds(), rep.Moved, rep.MigrationBytesPerSec)
	fmt.Printf("final: %d edges, rf %.3f, edge balance %.3f, %d compactions, epoch %d\n",
		rep.Stats.NumEdges, rep.Stats.ReplicationFactor, rep.Stats.EdgeBalance,
		rep.Stats.Compactions, rep.Stats.Epoch)
	if p99s, p99c := rep.Steady.LatencyP99, rep.DuringCompaction.LatencyP99; p99s > 0 {
		fmt.Printf("tail cost: compaction p99/steady p99 = %.2fx\n", float64(p99c)/float64(p99s))
	}
}

func loadGraph(path string, scale, ef int, seed int64) (*graph.Graph, error) {
	if path == "" {
		return gen.RMAT(scale, ef, seed), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadBinary(f)
}
