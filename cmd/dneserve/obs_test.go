package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestMetricsEndpoint drives a partition, a graph build with queries, and a
// second graph's ingest through the handler, then checks /metrics exposes
// the subsystem families obs-smoke asserts on, with a dne_live_* sample for
// each of the two graphs served at once.
func TestMetricsEndpoint(t *testing.T) {
	h := newHandler(t, 100_000, time.Minute)

	if rec := doJSON(t, h, http.MethodPost, "/api/partition",
		Request{Method: "dne", Parts: 2, RMAT: &RMATSpec{Scale: 6, EF: 4, Seed: 1}}); rec.Code != http.StatusOK {
		t.Fatalf("partition: status %d: %s", rec.Code, rec.Body)
	}
	m := buildTestStore(t, h, BuildRequest{Method: "dne", Parts: 2, Name: "m",
		RMAT: &RMATSpec{Scale: 6, EF: 4, Seed: 1}})
	v := uint32(0)
	if rec := doJSON(t, h, http.MethodPost, "/api/graphs/m/neighbors",
		NeighborsRequest{Vertex: &v}); rec.Code != http.StatusOK {
		t.Fatalf("neighbors: status %d: %s", rec.Code, rec.Body)
	}
	ingestBatch(t, h, "g", IngestRequest{Parts: 2, Edges: [][2]uint32{{0, 1}, {1, 2}, {2, 0}}})

	rec := doJSON(t, h, http.MethodGet, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	out := rec.Body.String()
	for _, want := range []string{
		"# TYPE dne_store_query_duration_seconds histogram",
		`dne_store_query_duration_seconds_count{kind="neighbors"} 1`,
		"dne_store_shard_touches_total",
		`dne_store_shard_touches{graph="m",shard="0"}`,
		`dne_live_edges{graph="g"} 3`,
		fmt.Sprintf(`dne_live_edges{graph="m"} %d`, m.Stats.NumEdges),
		`dne_live_apply_duration_seconds_count{graph="g"} 1`,
		"dne_http_request_duration_seconds",
		`route="/api/graphs/{id}/neighbors"`,
		"dne_go_goroutines",
		"dne_process_uptime_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The partition and build runs must have left spans in the ring.
	trec := doJSON(t, h, http.MethodGet, "/debug/trace", nil)
	if trec.Code != http.StatusOK {
		t.Fatalf("/debug/trace: status %d", trec.Code)
	}
	var doc struct {
		Spans []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(trec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("trace dump does not parse: %v", err)
	}
	cats := map[string]bool{}
	for _, s := range doc.Spans {
		cats[s.Cat] = true
	}
	if !cats["partition"] || !cats["store"] {
		t.Fatalf("trace ring missing partition/store spans: %+v", doc.Spans)
	}
}

func TestRouteLabelBoundsCardinality(t *testing.T) {
	cases := map[string]string{
		"/api/partition":               "/api/partition",
		"/api/graphs":                  "/api/graphs",
		"/api/graphs/s1":               "/api/graphs/{id}",
		"/api/graphs/s1/khop":          "/api/graphs/{id}/khop",
		"/api/graphs/../../etc":        "other",
		"/api/graphs/s1/../../etc":     "other",
		"/api/graphs/../../etc/ingest": "other",
		"/api/graphs/s1/unknown-route": "other",
		"/totally/unknown/path":        "other",
		"/healthz":                     "/healthz",
	}
	for path, want := range cases {
		if got := routeLabel(path); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestQueryAfterCompactIsTimed: a compaction builds the graph a new base,
// and the queries it serves still count into the server's
// dne_store_query_duration_seconds.
func TestQueryAfterCompactIsTimed(t *testing.T) {
	h := newHandler(t, 100_000, time.Minute)
	ingestBatch(t, h, "g", IngestRequest{Parts: 2, Edges: ringEdges(20)})
	if rec := doJSON(t, h, http.MethodPost, "/api/graphs/g/compact", CompactRequest{}); rec.Code != http.StatusOK {
		t.Fatalf("compact: status %d: %s", rec.Code, rec.Body)
	}
	v := uint32(0)
	if rec := doJSON(t, h, http.MethodPost, "/api/graphs/g/neighbors", NeighborsRequest{Vertex: &v}); rec.Code != http.StatusOK {
		t.Fatalf("neighbors: status %d: %s", rec.Code, rec.Body)
	}
	want := `dne_store_query_duration_seconds_count{kind="neighbors"} 1`
	if out := doJSON(t, h, http.MethodGet, "/metrics", nil).Body.String(); !strings.Contains(out, want) {
		t.Errorf("/metrics missing %q after a compaction", want)
	}
}
