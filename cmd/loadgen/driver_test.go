package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeServe is a dneserve stand-in serving one graph "s1" of numVertices
// vertices. Like dneserve it answers 400 for a vertex outside the graph.
// Its /metrics carries slow khop traffic from before the run plus one fast
// neighbors sample per served query.
type fakeServe struct {
	numVertices uint32
	build       atomic.Pointer[BuildRequest]
	served      atomic.Int64
	dropped     atomic.Bool
}

func (f *fakeServe) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/graphs", func(w http.ResponseWriter, r *http.Request) {
		var req BuildRequest
		json.NewDecoder(r.Body).Decode(&req)
		f.build.Store(&req)
		fmt.Fprintf(w, `{"graph":"s1","method":"NE","numVertices":%d,"quality":{"replicationFactor":1.5},"partitionMs":2,"buildMs":1}`,
			f.numVertices)
	})
	query := func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Vertex *uint32 `json:"vertex"`
			K      int     `json:"k"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || r.PathValue("id") != "s1" || req.Vertex == nil {
			http.Error(w, `{"error":"bad request"}`, http.StatusBadRequest)
			return
		}
		if *req.Vertex >= f.numVertices {
			http.Error(w, fmt.Sprintf(`{"error":"vertex %d out of range [0,%d)"}`, *req.Vertex, f.numVertices),
				http.StatusBadRequest)
			return
		}
		f.served.Add(1)
		w.Write([]byte(`{}`))
	}
	mux.HandleFunc("POST /api/graphs/{id}/neighbors", query)
	mux.HandleFunc("POST /api/graphs/{id}/khop", query)
	mux.HandleFunc("GET /api/graphs/{id}/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("id") != "s1" {
			fmt.Fprint(w, `{"graph":"s0","metrics":{"neighborsQueries":1,"crossShardHops":99}}`)
			return
		}
		n := f.served.Load()
		fmt.Fprintf(w, `{"graph":"s1","metrics":{"neighborsQueries":%d,"crossShardHops":%d,"perShardTouches":[3,1]}}`, n, 2*n)
	})
	mux.HandleFunc("DELETE /api/graphs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.dropped.Store(r.PathValue("id") == "s1")
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		n := f.served.Load()
		fmt.Fprintf(w, `dne_store_query_duration_seconds_bucket{kind="khop",le="1"} 100
dne_store_query_duration_seconds_bucket{kind="khop",le="+Inf"} 100
dne_store_query_duration_seconds_bucket{kind="neighbors",le="0.001"} %d
dne_store_query_duration_seconds_bucket{kind="neighbors",le="+Inf"} %d
`, n, n)
	})
	return mux
}

// TestRunMethodDrawsVerticesFromServer: query vertices come from the
// built graph's numVertices, not from a client-side graph, so a server
// whose graph is smaller than 2^rmat-scale answers every query. The graph
// is built from the RMAT spec, its own metrics are read back, and it is
// dropped.
func TestRunMethodDrawsVerticesFromServer(t *testing.T) {
	f := &fakeServe{numVertices: 10}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()

	c := &client{rc: newRetryClient(8), url: srv.URL}
	wl := workload{queries: 500, khopRatio: 0.3, k: 2, seed: 7, workers: 4,
		scrape: true, scrapeInterval: time.Millisecond}
	build := BuildRequest{Method: "ne", Parts: 2, RMAT: &RMATSpec{Scale: 12, EF: 8, Seed: 1}}
	run, err := c.runMethod(context.Background(), build, wl)
	if err != nil {
		t.Fatal(err)
	}
	if run.drive.failed != 0 {
		t.Fatalf("%d queries failed; first: %v", run.drive.failed, run.drive.firstErr)
	}
	if got := run.drive.latency.Count; got != 500 {
		t.Fatalf("recorded %d latencies, want 500", got)
	}
	if got := f.served.Load(); got != 500 {
		t.Fatalf("server answered %d queries, want 500", got)
	}
	if sent := f.build.Load(); sent.RMAT == nil || *sent.RMAT != *build.RMAT || len(sent.Edges) != 0 {
		t.Fatalf("build sent %+v, want the rmat spec and no edges", sent)
	}
	if got := run.metrics.HopsPerQuery(); got != 2 {
		t.Fatalf("hops/query %v read from the wrong graph, want 2", got)
	}
	if got := touchImbalance(run.metrics.PerShardTouches); got != 1.5 {
		t.Fatalf("touch imbalance %v, want 1.5", got)
	}
	if !f.dropped.Load() {
		t.Fatal("graph s1 was not dropped")
	}
	// The khop traffic predates the run; the increase leaves only the
	// run's 1 ms neighbors samples.
	if !strings.Contains(run.drift, "server p99 1.000 ms") {
		t.Fatalf("drift line %q does not read the run's increase", run.drift)
	}
}

// TestDrivePaced: with -qps set the run is open loop, stretched to
// roughly queries/qps.
func TestDrivePaced(t *testing.T) {
	f := &fakeServe{numVertices: 10}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()

	c := &client{rc: newRetryClient(8), url: srv.URL}
	wl := workload{queries: 50, seed: 2, workers: 2, qps: 5000}
	res := c.drive(context.Background(), "s1", queryList(wl, 10), wl)
	if res.failed != 0 || res.latency.Count != 50 {
		t.Fatalf("served %d, failed %d (%v)", res.latency.Count, res.failed, res.firstErr)
	}
	if min := 49.0 / 5000; res.elapsed.Seconds() < min {
		t.Fatalf("paced run finished in %v, want ≥ %vs", res.elapsed, min)
	}
}

// TestQueryListSameSeedSameQueries: the list is a pure function of the
// seed, and each query draws its vertex before its kind.
func TestQueryListSameSeedSameQueries(t *testing.T) {
	wl := workload{queries: 200, khopRatio: 0.5, seed: 11}
	a, b := queryList(wl, 37), queryList(wl, 37)
	rng := rand.New(rand.NewSource(11))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d differs across equal seeds: %+v vs %+v", i, a[i], b[i])
		}
		want := query{v: uint32(rng.Intn(37)), khop: rng.Float64() < 0.5}
		if a[i] != want {
			t.Fatalf("query %d = %+v, want %+v (vertex, then kind)", i, a[i], want)
		}
	}
}
