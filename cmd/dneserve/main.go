// Command dneserve exposes the repository's edge partitioners as an HTTP
// service — the shape a downstream system would embed the library behind.
//
//	dneserve -addr :8080
//
// Endpoints:
//
//	GET    /healthz                    liveness probe
//	GET    /api/methods                method descriptors
//	POST   /api/partition              partition a graph (JSON; see Request)
//	POST   /api/graphs                 partition a graph and serve it (see BuildRequest)
//	GET    /api/graphs                 served graphs with their serving metrics
//	DELETE /api/graphs/{id}            drop a graph and its directory
//	POST   /api/graphs/{id}/ingest     insert and delete edges, placed incrementally
//	                                   (creates the graph when parts > 0)
//	GET    /api/graphs/{id}/stats      placement counters (?checksum=1 digests the edges)
//	POST   /api/graphs/{id}/compact    fold the overlay into a fresh base (optional rebalance)
//	POST   /api/graphs/{id}/neighbors  point lookups on the current epoch
//	POST   /api/graphs/{id}/khop       k-hop BFS on the current epoch
//	GET    /metrics                    Prometheus text exposition of every subsystem
//	GET    /debug/trace                recent phase spans (?format=chrome for Perfetto)
//
// Every graph lives in its own directory under -graph-dir and is restored
// at startup; without -graph-dir, graphs live under a temporary root that
// a clean shutdown removes.
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
	maxGraphs := flag.Int("max-graphs", defaultMaxGraphs, "maximum served graphs")
	graphDir := flag.String("graph-dir", "", "keep each graph in a directory here and restore them at startup (empty = a temporary root, removed on shutdown)")
	debugAddr := flag.String("debug-addr", "", "serve pprof, /metrics and /debug/trace on this extra listener (empty = off)")
	quiet := flag.Bool("quiet", false, "suppress the structured access log")
	maxInflight := flag.Int("max-inflight", 0, "concurrently executing heavy requests (0 = 2×GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "heavy requests queued beyond -max-inflight before shedding 503s (0 = 4×inflight)")
	queueWait := flag.Duration("queue-wait", 0, "longest a queued request waits for a slot before a 503 (0 = 2s)")
	flag.Parse()

	root := *graphDir
	if root == "" {
		var err error
		if root, err = os.MkdirTemp("", "dneserve-graphs-"); err != nil {
			log.Fatal(err)
		}
	}
	adm := admissionLimits{MaxInflight: *maxInflight, MaxQueue: *maxQueue, MaxWait: *queueWait}
	handler, graphs, so, restoreErrs := newServer(*maxEdges, *timeout, *maxGraphs, root, adm)
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
	srv := newHTTPServer(*addr, handler, *timeout)

	// SIGINT/SIGTERM drain the server, then seal every graph's tails, so a
	// restart with the same -graph-dir resumes exactly (bases and tails
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

	log.Printf("dneserve: listening on %s (request timeout %v, graphs in %s)", *addr, *timeout, root)
	err := srv.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	err = errors.Join(err, graphs.close())
	if *graphDir == "" {
		os.RemoveAll(root)
	}
	if err != nil {
		log.Fatalf("dneserve: %v", err)
	}
}

// newHTTPServer is the listener's server. Every bound derives from the
// per-request deadline: a request's body must arrive within it, and its
// response must be written within three times it of the request's headers
// (the body, then the handler's own deadline and its cancellation, then
// the write), so a client that dribbles its body or stops reading cannot
// hold a connection open. A zero timeout leaves both unbounded.
func newHTTPServer(addr string, h http.Handler, timeout time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       timeout,
		WriteTimeout:      3 * timeout,
		IdleTimeout:       2 * time.Minute,
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
