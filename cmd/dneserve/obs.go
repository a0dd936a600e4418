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
	"github.com/distributedne/dne/internal/obs"
	"github.com/distributedne/dne/internal/store"
)

// serverObs is the server's observability spine: one registry behind
// GET /metrics, one ring-buffered tracer behind GET /debug/trace, and the
// pre-resolved hot-path handles (store query instruments, live query
// latency) so request paths never take the registry lock.
type serverObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	storeObs      *store.Obs
	liveNeighbors *obs.Histogram
	liveKHop      *obs.Histogram

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
	so.liveNeighbors = so.reg.DurationHistogram("dne_live_query_duration_seconds",
		"Live-epoch query latency by endpoint.", "kind", "neighbors")
	so.liveKHop = so.reg.DurationHistogram("dne_live_query_duration_seconds",
		"Live-epoch query latency by endpoint.", "kind", "khop")
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

// registerStoreGauges exposes the resident-store registry: store count and
// the per-shard touch counters of every resident store, so shard skew is
// visible on /metrics without polling GET /api/store.
func (so *serverObs) registerStoreGauges(sr *storeRegistry) {
	so.reg.GaugeFunc("dne_store_resident", "Resident query stores.",
		func(emit func(v float64, kv ...string)) {
			emit(float64(len(sr.list())))
		})
	so.reg.GaugeFunc("dne_store_shard_touches",
		"Shard fetches per resident store and shard (resets when a store is dropped).",
		func(emit func(v float64, kv ...string)) {
			for _, st := range sr.list() {
				for s, n := range st.Metrics.PerShardTouches {
					emit(float64(n), "store", st.Store, "shard", strconv.Itoa(s))
				}
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
		"/api/methods", "/api/partition",
		"/api/store/build", "/api/store",
		"/api/query/neighbors", "/api/query/khop",
		"/api/live/ingest", "/api/live/stats", "/api/live/compact",
		"/api/live/query/neighbors", "/api/live/query/khop":
		return path
	}
	if strings.HasPrefix(path, "/api/store/") {
		return "/api/store/{id}"
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
