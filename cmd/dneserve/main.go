// Command dneserve exposes the repository's edge partitioners as an HTTP
// service — the shape a downstream system would embed the library behind.
//
//	dneserve -addr :8080
//
// Endpoints:
//
//	GET    /healthz              liveness probe
//	GET    /api/methods          JSON list of method names
//	POST   /api/partition        partition a graph (JSON; see Request)
//	POST   /api/store/build      partition a graph and materialize a sharded
//	                             query store (JSON; see StoreBuildRequest)
//	GET    /api/store            list resident stores with serving metrics
//	DELETE /api/store/{id}       drop a store
//	POST   /api/query/neighbors  point lookups against a store
//	POST   /api/query/khop       k-hop BFS across the shards
//	POST   /api/live/ingest      append edge insertions/deletions to the
//	                             live graph, placed incrementally
//	GET    /api/live/stats       live-graph counters (?checksum=1 digests
//	                             the full live edge set)
//	POST   /api/live/compact     fold the overlay into a fresh base, with
//	                             an optional bounded rebalance first
//	POST   /api/live/query/neighbors  point lookups against the live epoch
//	POST   /api/live/query/khop       k-hop BFS against the live epoch
//	GET    /metrics              Prometheus text exposition of every
//	                             subsystem's metric families
//	GET    /debug/trace          recent phase spans (?format=chrome for
//	                             chrome://tracing / Perfetto)
//
// With -debug-addr set, a second listener serves net/http/pprof plus the
// same /metrics and /debug/trace. Every request is logged as one JSON line
// (method, path, status, duration, bytes) unless -quiet is set.
//
// A request supplies either explicit edges or a synthetic-generator spec:
//
//	{"method":"dne","parts":8,"edges":[[0,1],[1,2]]}
//	{"method":"hdrf","parts":16,"rmat":{"scale":14,"ef":16,"seed":7}}
//
// The response carries the per-edge owners (aligned with the canonical,
// deduplicated edge order returned in "edges" when "echoEdges" is set) plus
// the quality metrics of §2 and §7.6.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxEdges := flag.Int64("max-edges", 5_000_000, "reject requests beyond this edge count, and bodies beyond 32 B per edge plus 1 MiB with 413")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request partitioning deadline (0 = none)")
	maxStores := flag.Int("max-stores", defaultMaxStores, "maximum resident query stores")
	storeDir := flag.String("store-dir", "", "persist each store as a shard directory here and restore them at startup")
	liveDir := flag.String("live-dir", "", "root the live graph here (per-partition bases and tails) and reopen it at startup")
	debugAddr := flag.String("debug-addr", "", "serve pprof, /metrics and /debug/trace on this extra listener (empty = off)")
	quiet := flag.Bool("quiet", false, "suppress the structured access log")
	maxInflight := flag.Int("max-inflight", 0, "concurrently executing heavy requests (0 = 2×GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "heavy requests queued beyond -max-inflight before shedding 503s (0 = 4×inflight)")
	queueWait := flag.Duration("queue-wait", 0, "longest a queued request waits for a slot before a 503 (0 = 2s)")
	flag.Parse()

	adm := admissionLimits{MaxInflight: *maxInflight, MaxQueue: *maxQueue, MaxWait: *queueWait}
	handler, lsvc, so, restoreErrs := newHandlerWithLive(*maxEdges, *timeout, *maxStores, *storeDir, *liveDir, adm)
	for _, err := range restoreErrs {
		log.Printf("dneserve: restore: %v", err)
	}
	if !*quiet {
		// One JSON line per request: method, path, status, duration, bytes.
		so.accessLog = log.New(os.Stderr, "", 0)
	}
	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, debugMux(so)); err != nil {
				log.Printf("dneserve: debug listener: %v", err)
			}
		}()
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Partitioning runs under its own deadline (-timeout); these bound
		// slow clients on the read/write side.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// SIGINT/SIGTERM drain the server, then seal the live graph's tails, so
	// a restart with the same -live-dir resumes exactly (bases and tails
	// merge to the identical graph).
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("dneserve: shutdown: %v", err)
		}
	}()

	log.Printf("dneserve: listening on %s (request timeout %v)", *addr, *timeout)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		lsvc.close()
		log.Fatal(err)
	}
	if err := lsvc.close(); err != nil {
		log.Fatalf("dneserve: sealing live graph: %v", err)
	}
}

// debugMux is the -debug-addr surface: the runtime profiler plus the same
// metrics and trace endpoints as the serving listener, so operators can
// keep the debug port firewalled separately from the API.
func debugMux(so *serverObs) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", so.serveMetrics)
	mux.HandleFunc("/debug/trace", so.serveTrace)
	return mux
}
