package main

import (
	"encoding/json"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/live"
	"github.com/distributedne/dne/internal/obs"
	"github.com/distributedne/dne/internal/store"
)

// serverObs is the server's observability spine: one registry behind
// GET /metrics, one ring-buffered tracer behind GET /debug/trace, and the
// store's query instruments, resolved once, so query paths never take the
// registry lock.
type serverObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	storeObs *store.Obs

	start time.Time

	// accessLog, when set (before the server starts serving), receives one
	// JSON line per request.
	accessLog *log.Logger
}

// traceCapacity bounds the span ring: enough for many partition runs'
// phases plus maintenance spans, small enough to dump interactively.
const traceCapacity = 4096

func newServerObs() *serverObs {
	so := &serverObs{
		reg:    obs.NewRegistry(),
		tracer: obs.NewTracer(traceCapacity),
		start:  time.Now(),
	}
	so.storeObs = store.NewObs(so.reg)
	cluster.RegisterMetrics(so.reg)
	dne.RegisterMetrics(so.reg)
	graph.RegisterStreamMetrics(so.reg)
	so.registerRuntimeMetrics()
	return so
}

func (so *serverObs) registerRuntimeMetrics() {
	so.reg.GaugeFunc("dne_go_goroutines", "Live goroutines.",
		func(emit func(v float64, kv ...string)) {
			emit(float64(runtime.NumGoroutine()))
		})
	so.reg.GaugeFunc("dne_go_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func(emit func(v float64, kv ...string)) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			emit(float64(ms.HeapAlloc))
		})
	so.reg.GaugeFunc("dne_go_heap_sys_bytes", "Heap memory obtained from the OS.",
		func(emit func(v float64, kv ...string)) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			emit(float64(ms.HeapSys))
		})
	so.reg.CounterFunc("dne_go_gc_runs_total", "Completed GC cycles.",
		func(emit func(v float64, kv ...string)) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			emit(float64(ms.NumGC))
		})
	so.reg.GaugeFunc("dne_process_uptime_seconds", "Seconds since the process started.",
		func(emit func(v float64, kv ...string)) {
			emit(time.Since(so.start).Seconds())
		})
}

// registerGraphMetrics exposes the served graphs: the graph count, the
// dne_live_* families of every graph, and the per-shard touch counters of
// every graph's current base, so shard skew is visible on /metrics without
// polling GET /api/graphs.
func (so *serverObs) registerGraphMetrics(gr *graphRegistry) {
	so.reg.GaugeFunc("dne_store_resident", "Served graphs.",
		func(emit func(v float64, kv ...string)) {
			emit(float64(len(gr.served())))
		})
	so.reg.GaugeFunc("dne_store_shard_touches",
		"Shard fetches per served graph and shard (resets when a compaction replaces the base).",
		func(emit func(v float64, kv ...string)) {
			for _, e := range gr.served() {
				for s, n := range e.lv.Epoch().Metrics().PerShardTouches {
					emit(float64(n), "graph", e.info.Graph, "shard", strconv.Itoa(s))
				}
			}
		})
	live.RegisterMetrics(so.reg, func(visit func(name string, l *live.Live)) {
		for _, e := range gr.served() {
			visit(e.info.Graph, e.lv)
		}
	})
}

// register wires the exposition endpoints onto the serving mux.
func (so *serverObs) register(mux *http.ServeMux) {
	mux.HandleFunc("GET /metrics", so.serveMetrics)
	mux.HandleFunc("GET /debug/trace", so.serveTrace)
}

func (so *serverObs) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = so.reg.WritePrometheus(w)
}

func (so *serverObs) serveTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("format") == "chrome" {
		_ = so.tracer.WriteChromeTrace(w)
		return
	}
	_ = so.tracer.WriteJSON(w)
}

// statusRecorder captures what the handler wrote so the middleware can
// label by status and account response bytes.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

// routeLabel collapses request paths onto the server's route set so the
// metric label space stays bounded no matter what clients send.
func routeLabel(path string) string {
	switch path {
	case "/healthz", "/metrics", "/debug/trace",
		"/api/methods", "/api/partition", "/api/graphs":
		return path
	}
	rest, ok := strings.CutPrefix(path, "/api/graphs/")
	if !ok {
		return "other"
	}
	switch _, op, _ := strings.Cut(rest, "/"); op {
	case "":
		return "/api/graphs/{id}"
	case "ingest", "stats", "compact", "neighbors", "khop":
		return "/api/graphs/{id}/" + op
	}
	return "other"
}

// accessEntry is one structured access-log line.
type accessEntry struct {
	Time     string  `json:"time"`
	Method   string  `json:"method"`
	Path     string  `json:"path"`
	Status   int     `json:"status"`
	DurMS    float64 `json:"durMs"`
	Bytes    int64   `json:"bytes"`
	RemoteIP string  `json:"remote,omitempty"`
}

// instrument wraps the serving mux: every request lands in the
// dne_http_request_duration_seconds{route,method} histogram and the
// dne_http_requests_total{route,method,code} counter, and — when an access
// logger is attached — emits one JSON line.
func (so *serverObs) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		d := time.Since(start)
		route := routeLabel(r.URL.Path)
		so.reg.DurationHistogram("dne_http_request_duration_seconds",
			"HTTP request latency by route.", "route", route, "method", r.Method).
			Observe(int64(d))
		so.reg.Counter("dne_http_requests_total",
			"HTTP requests by route and status.",
			"route", route, "method", r.Method, "code", strconv.Itoa(rec.status)).Inc()
		if so.accessLog != nil {
			line, err := json.Marshal(accessEntry{
				Time:     start.UTC().Format(time.RFC3339Nano),
				Method:   r.Method,
				Path:     r.URL.Path,
				Status:   rec.status,
				DurMS:    float64(d.Microseconds()) / 1000,
				Bytes:    rec.bytes,
				RemoteIP: r.RemoteAddr,
			})
			if err == nil {
				so.accessLog.Printf("%s", line)
			}
		}
	})
}
