// Command loadgen measures the online serving cost of edge partitionings
// against a running dneserve. For each requested method it builds a fresh
// graph on the server (POST /api/graphs), drives an identical seeded query
// workload at it over HTTP, reads the graph's serving counters back
// (GET /api/graphs/{id}/stats), drops the graph, and prints a table comparing
// throughput, latency percentiles, and — the point of the exercise —
// cross-shard hops per query, the serving-time analogue of the paper's
// replication factor.
//
//	dneserve -addr 127.0.0.1:8080 &
//	loadgen -url http://127.0.0.1:8080 -methods random,hdrf,ne -parts 8 \
//	        -rmat-scale 12 -rmat-ef 8 -queries 5000 -workers 8 -khop-ratio 0.3 -k 2
//
// A method with a lower replication factor routes fewer mirror fetches, so
// its hops/query column is correspondingly lower for the same workload.
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
	"github.com/distributedne/dne/internal/graph"
)

func main() {
	methodList := flag.String("methods", "random,hdrf,dne", "comma-separated partitioning methods to compare")
	parts := flag.Int("parts", 8, "number of shards (partitions)")
	seed := flag.Int64("seed", 1, "partitioner seed")

	shardDir := flag.String("shard-dir", "", "shard directory (gengraph -shard-dir) whose edges are uploaded; overrides -rmat-*")
	rmatScale := flag.Int("rmat-scale", 12, "RMAT scale (2^scale vertices) the server generates when no -shard-dir is given")
	rmatEF := flag.Int("rmat-ef", 8, "RMAT edge factor")
	graphSeed := flag.Int64("graph-seed", 1, "RMAT generator seed")

	queries := flag.Int("queries", 5000, "queries per method")
	qps := flag.Float64("qps", 0, "target aggregate QPS (0 = closed loop)")
	workers := flag.Int("workers", 8, "concurrent query workers")
	khopRatio := flag.Float64("khop-ratio", 0.3, "fraction of queries that are k-hop traversals")
	k := flag.Int("k", 2, "traversal depth of k-hop queries")
	workloadSeed := flag.Int64("workload-seed", 7, "query-selection seed (same seed = identical workload)")
	timeout := flag.Duration("timeout", 10*time.Minute, "overall deadline")

	scrape := flag.Bool("scrape", false, "poll the server's /metrics during each run and report server-side vs client-side p99 drift")
	scrapeInterval := flag.Duration("scrape-interval", 200*time.Millisecond, "poll period of -scrape")

	url := flag.String("url", "", "base URL of the dneserve to drive (required; transient errors are retried with backoff)")
	retries := flag.Int("retries", 8, "max attempts per request before a transient error counts as a failure")
	flag.Parse()

	if *url == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -url is required: start dneserve, then point loadgen at it")
		flag.Usage()
		os.Exit(2)
	}
	if *queries <= 0 {
		log.Fatalf("loadgen: -queries must be positive, got %d", *queries)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	c := &client{rc: newRetryClient(*retries), url: strings.TrimRight(*url, "/")}
	build := BuildRequest{Parts: *parts, Seed: *seed}
	source := fmt.Sprintf("rmat scale %d ef %d seed %d", *rmatScale, *rmatEF, *graphSeed)
	if *shardDir != "" {
		g, err := readGraph(*shardDir)
		if err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		build.Edges = make([][2]uint32, g.NumEdges())
		for i, e := range g.Edges() {
			build.Edges[i] = [2]uint32{e.U, e.V}
		}
		source = fmt.Sprintf("%s %v", *shardDir, g)
	} else {
		build.RMAT = &RMATSpec{Scale: *rmatScale, EF: *rmatEF, Seed: *graphSeed}
	}
	fmt.Printf("graph: %s on %s, %d shards, %d queries/method (%.0f%% khop k=%d, workers=%d",
		source, c.url, *parts, *queries, *khopRatio*100, *k, *workers)
	if *qps > 0 {
		fmt.Printf(", %.0f qps", *qps)
	}
	fmt.Println(")")

	table := &bench.Table{Header: []string{
		"method", "rf", "part(s)", "build(s)", "ok", "qps", "p50(ms)", "p95(ms)", "p99(ms)", "hops/query", "imbalance",
	}}
	wl := workload{
		queries: *queries, khopRatio: *khopRatio, k: *k, seed: *workloadSeed,
		workers: *workers, qps: *qps,
		scrape: *scrape, scrapeInterval: *scrapeInterval,
	}
	var driftLines []string
	var failed int64
	var firstErr error
	for _, name := range strings.Split(*methodList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		build.Method = name
		run, err := c.runMethod(ctx, build, wl)
		if err != nil {
			log.Fatalf("loadgen: %s: %v", name, err)
		}
		if run.drift != "" {
			driftLines = append(driftLines, run.drift)
		}
		res := run.drive
		failed += res.failed
		if firstErr == nil {
			firstErr = res.firstErr
		}
		table.Add(
			run.info.Method,
			run.info.Quality.ReplicationFactor,
			msDuration(run.info.PartitionMS),
			msDuration(run.info.BuildMS),
			res.latency.Count,
			fmt.Sprintf("%.0f", float64(res.latency.Count)/res.elapsed.Seconds()),
			ms(time.Duration(res.latency.Quantile(0.50))),
			ms(time.Duration(res.latency.Quantile(0.95))),
			ms(time.Duration(res.latency.Quantile(0.99))),
			run.metrics.HopsPerQuery(),
			touchImbalance(run.metrics.PerShardTouches),
		)
	}
	table.Print(os.Stdout)
	for _, line := range driftLines {
		fmt.Println(line)
	}
	// Retries are reported on their own line, deliberately not folded into
	// the failure count: a retried-then-served query is a success.
	fmt.Printf("retries: %d transport, %d shed (503) — transient, not counted as failures\n",
		c.rc.connRetries.Load(), c.rc.shedRetries.Load())
	if failed > 0 {
		fmt.Printf("failures: %d queries failed; first: %v\n", failed, firstErr)
	}
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000)
}

func msDuration(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

// touchImbalance is max/mean of the per-shard touch counts (1.0 = even).
func touchImbalance(touches []int64) float64 {
	var sum, max int64
	for _, c := range touches {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) / (float64(sum) / float64(len(touches)))
}

// readGraph loads a shard directory as dnepart -shard-dir does.
func readGraph(dir string) (*graph.Graph, error) {
	shard, err := graph.ReadShardDir(dir, nil)
	if err != nil {
		return nil, err
	}
	return graph.FromPacked(shard.NumVertices, shard.Packed), nil
}
