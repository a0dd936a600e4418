package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/live"
	"github.com/distributedne/dne/internal/partition"
)

// serveDir is newServer over the graph directory dir; its graphs are
// closed when the test ends.
func serveDir(t testing.TB, dir string, maxEdges int64, reqTimeout time.Duration, maxGraphs int) (http.Handler, *graphRegistry) {
	t.Helper()
	h, gr, _, errs := newServer(maxEdges, reqTimeout, maxGraphs, dir, admissionLimits{})
	if len(errs) != 0 {
		t.Fatalf("restore errors: %v", errs)
	}
	t.Cleanup(func() { gr.close() })
	return h, gr
}

// newHandler is a server over a fresh graph directory.
func newHandler(t *testing.T, maxEdges int64, reqTimeout time.Duration) http.Handler {
	t.Helper()
	h, _ := serveDir(t, t.TempDir(), maxEdges, reqTimeout, defaultMaxGraphs)
	return h
}

// ringEdges returns a cycle 0-1-...-n-1-0 plus chords so BFS levels are
// non-trivial.
func ringEdges(n uint32) [][2]uint32 {
	edges := make([][2]uint32, 0, 2*n)
	for i := uint32(0); i < n; i++ {
		edges = append(edges, [2]uint32{i, (i + 1) % n})
	}
	for i := uint32(0); i < n; i += 5 {
		edges = append(edges, [2]uint32{i, (i + n/2) % n})
	}
	return edges
}

// decode unmarshals rec's body into a T.
func decode[T any](t testing.TB, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("%v: %s", err, rec.Body)
	}
	return v
}

func buildTestStore(t testing.TB, h http.Handler, req BuildRequest) GraphInfo {
	t.Helper()
	rec := doJSON(t, h, http.MethodPost, "/api/graphs", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("graph build status %d: %s", rec.Code, rec.Body)
	}
	return decode[GraphInfo](t, rec)
}

func listGraphs(t *testing.T, h http.Handler) []GraphInfo {
	t.Helper()
	rec := doJSON(t, h, http.MethodGet, "/api/graphs", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("list status %d", rec.Code)
	}
	return decode[[]GraphInfo](t, rec)
}

func ingestBatch(t *testing.T, h http.Handler, id string, req IngestRequest) IngestResponse {
	t.Helper()
	rec := doJSON(t, h, http.MethodPost, "/api/graphs/"+id+"/ingest", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
	}
	return decode[IngestResponse](t, rec)
}

func graphStats(t *testing.T, h http.Handler, id string, checksum bool) GraphInfo {
	t.Helper()
	path := "/api/graphs/" + id + "/stats"
	if checksum {
		path += "?checksum=1"
	}
	rec := doJSON(t, h, http.MethodGet, path, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d: %s", rec.Code, rec.Body)
	}
	return decode[GraphInfo](t, rec)
}

func TestStoreBuildAndList(t *testing.T) {
	h := newHandler(t, 100_000, time.Minute)
	info := buildTestStore(t, h, BuildRequest{
		Method: "hdrf", Parts: 4, Edges: ringEdges(100),
	})
	if info.Graph == "" || info.Method != "HDRF" || info.Stats.NumParts != 4 {
		t.Fatalf("info %+v", info)
	}
	if info.Stats.ReplicationFactor < 1 || len(info.Stats.Sizes) != 4 {
		t.Fatalf("info %+v", info)
	}
	var totalEdges int64
	for _, n := range info.Stats.Sizes {
		totalEdges += n
	}
	if totalEdges != info.Stats.NumEdges {
		t.Errorf("partition edges %d != total %d", totalEdges, info.Stats.NumEdges)
	}

	if list := listGraphs(t, h); len(list) != 1 || list[0].Graph != info.Graph {
		t.Fatalf("list %+v", list)
	}

	if rec := doJSON(t, h, http.MethodDelete, "/api/graphs/"+info.Graph, nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete status %d", rec.Code)
	}
	if rec := doJSON(t, h, http.MethodDelete, "/api/graphs/"+info.Graph, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("double delete status %d", rec.Code)
	}
}

func TestQueryNeighbors(t *testing.T) {
	h := newHandler(t, 100_000, time.Minute)
	info := buildTestStore(t, h, BuildRequest{
		Method: "random", Parts: 4, Seed: 3, Edges: [][2]uint32{{0, 1}, {0, 2}, {0, 3}, {1, 2}},
	})
	v := uint32(0)
	rec := doJSON(t, h, http.MethodPost, "/api/graphs/"+info.Graph+"/neighbors", NeighborsRequest{Vertex: &v})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	resp := decode[NeighborsResponse](t, rec)
	if len(resp.Results) != 1 || resp.Results[0].Degree != 3 {
		t.Fatalf("resp %+v", resp)
	}
	if got := resp.Results[0].Neighbors; len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("neighbors %v", got)
	}

	rec = doJSON(t, h, http.MethodPost, "/api/graphs/"+info.Graph+"/neighbors", NeighborsRequest{Vertices: []uint32{1, 2}})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body)
	}
	if resp := decode[NeighborsResponse](t, rec); len(resp.Results) != 2 {
		t.Fatalf("batch resp %+v", resp)
	}
}

// TestQueryKHopMatchesOracle is the serving acceptance check: the endpoint's
// answer equals a BFS oracle computed directly on the request edges.
func TestQueryKHopMatchesOracle(t *testing.T) {
	h := newHandler(t, 100_000, time.Minute)
	edges := ringEdges(60)
	info := buildTestStore(t, h, BuildRequest{Method: "dne", Parts: 5, Seed: 2, Edges: edges})

	// Oracle BFS on the adjacency implied by the request edges.
	adj := map[uint32][]uint32{}
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	oracle := func(src uint32, k int) map[uint32]int32 {
		dist := map[uint32]int32{src: 0}
		frontier := []uint32{src}
		for d := int32(1); int(d) <= k && len(frontier) > 0; d++ {
			var next []uint32
			for _, u := range frontier {
				for _, w := range adj[u] {
					if _, seen := dist[w]; !seen {
						dist[w] = d
						next = append(next, w)
					}
				}
			}
			frontier = next
		}
		return dist
	}

	for _, tc := range []struct {
		src uint32
		k   int
	}{{0, 0}, {0, 1}, {7, 2}, {30, 3}, {59, 4}} {
		rec := doJSON(t, h, http.MethodPost, "/api/graphs/"+info.Graph+"/khop", KHopRequest{Vertex: tc.src, K: tc.k})
		if rec.Code != http.StatusOK {
			t.Fatalf("khop(%d,%d) status %d: %s", tc.src, tc.k, rec.Code, rec.Body)
		}
		resp := decode[KHopResponse](t, rec)
		want := oracle(tc.src, tc.k)
		if resp.Visited != len(want) || len(resp.Vertices) != len(want) {
			t.Fatalf("khop(%d,%d) visited %d, oracle %d", tc.src, tc.k, resp.Visited, len(want))
		}
		for i, v := range resp.Vertices {
			d, ok := want[v]
			if !ok || d != resp.Depths[i] {
				t.Fatalf("khop(%d,%d): vertex %d depth %d, oracle %d (found %v)",
					tc.src, tc.k, v, resp.Depths[i], d, ok)
			}
		}
		// Depth ordering invariant: sorted by (depth, id).
		if !sort.SliceIsSorted(resp.Vertices, func(i, j int) bool {
			if resp.Depths[i] != resp.Depths[j] {
				return resp.Depths[i] < resp.Depths[j]
			}
			return resp.Vertices[i] < resp.Vertices[j]
		}) {
			t.Fatalf("khop(%d,%d) output not depth-ordered", tc.src, tc.k)
		}
	}
}

// TestQueryErrors runs one error table against a built graph and an
// ingested one: the query routes share parsing, bounds and statuses
// whatever created the graph.
func TestQueryErrors(t *testing.T) {
	h := newHandler(t, 100_000, time.Minute)
	// Nothing to query yet: an unknown graph.
	for path, body := range map[string]map[string]any{
		"/api/graphs/nope/neighbors": {"vertex": 0},
		"/api/graphs/nope/khop":      {"vertex": 0, "k": 1},
		"/api/graphs/nope/compact":   {},
	} {
		if rec := doJSON(t, h, http.MethodPost, path, body); rec.Code != http.StatusNotFound {
			t.Errorf("%s with nothing to query: status %d, want 404 (%s)", path, rec.Code, rec.Body)
		}
	}
	if rec := doJSON(t, h, http.MethodGet, "/api/graphs/nope/stats", nil); rec.Code != http.StatusNotFound {
		t.Errorf("stats of an unknown graph: status %d, want 404", rec.Code)
	}
	info := buildTestStore(t, h, BuildRequest{
		Method: "random", Parts: 2, Edges: [][2]uint32{{0, 1}, {1, 2}},
	})
	ingestBatch(t, h, "ingested", IngestRequest{Parts: 2, Edges: [][2]uint32{{0, 1}, {1, 2}}})

	cases := []struct {
		name  string
		route string
		body  map[string]any
		code  int
	}{
		{"no vertex", "neighbors", map[string]any{}, http.StatusBadRequest},
		{"both vertex forms", "neighbors", map[string]any{"vertex": 0, "vertices": []uint32{1}}, http.StatusBadRequest},
		{"vertex out of range", "neighbors", map[string]any{"vertices": []uint32{999}}, http.StatusBadRequest},
		{"batch too large", "neighbors", map[string]any{"vertices": make([]uint32, maxNeighborsBatch+1)},
			http.StatusRequestEntityTooLarge},
		{"unknown field", "neighbors", map[string]any{"vertex": 0, "bogus": 1}, http.StatusBadRequest},
		// The route names the graph: a graph field is an unknown field.
		{"graph field", "neighbors", map[string]any{"vertex": 0, "graph": info.Graph}, http.StatusBadRequest},
		{"khop k too large", "khop", map[string]any{"vertex": 0, "k": 1000}, http.StatusBadRequest},
		{"khop bad vertex", "khop", map[string]any{"vertex": 999, "k": 1}, http.StatusBadRequest},
		{"khop unknown field", "khop", map[string]any{"vertex": 0, "k": 1, "bogus": 1}, http.StatusBadRequest},
	}
	for _, id := range []string{info.Graph, "ingested"} {
		for _, c := range cases {
			path := "/api/graphs/" + id + "/" + c.route
			if rec := doJSON(t, h, http.MethodPost, path, maps.Clone(c.body)); rec.Code != c.code {
				t.Errorf("%s %s: status %d, want %d (%s)", path, c.name, rec.Code, c.code, rec.Body)
			}
		}
	}
}

// doCancelled sends body to path with a context cancelled before the
// request arrives, as when the client has already gone away.
func doCancelled(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, &buf).WithContext(ctx))
	return rec
}

// TestCancelledRequestsReturn408: a request whose client went away answers
// 408 on every route that does real work — the partitioning endpoints and
// the neighbors route of a built and of an ingested graph alike.
func TestCancelledRequestsReturn408(t *testing.T) {
	h := newHandler(t, 100_000, time.Minute)
	info := buildTestStore(t, h, BuildRequest{Method: "random", Parts: 2, Edges: ringEdges(20)})
	ingestBatch(t, h, "ingested", IngestRequest{Parts: 2, Edges: ringEdges(20)})
	rmat := &RMATSpec{Scale: 8, EF: 8, Seed: 1}
	v := uint32(0)
	for _, c := range []struct {
		path string
		body any
	}{
		{"/api/partition", Request{Method: "dne", Parts: 4, RMAT: rmat}},
		{"/api/graphs", BuildRequest{Method: "dne", Parts: 4, RMAT: rmat}},
		{"/api/graphs/" + info.Graph + "/neighbors", NeighborsRequest{Vertex: &v}},
		{"/api/graphs/ingested/neighbors", NeighborsRequest{Vertices: []uint32{0, 1, 2}}},
	} {
		if rec := doCancelled(t, h, c.path, c.body); rec.Code != http.StatusRequestTimeout {
			t.Errorf("%s: status %d, want 408 (%s)", c.path, rec.Code, rec.Body)
		}
	}
}

func TestStoreBuildErrors(t *testing.T) {
	h := newHandler(t, 100, time.Minute)
	cases := []struct {
		name string
		req  BuildRequest
		code int
	}{
		{"no graph", BuildRequest{Method: "dne", Parts: 2}, http.StatusBadRequest},
		{"bad parts", BuildRequest{Method: "dne", Parts: 0, Edges: [][2]uint32{{0, 1}}}, http.StatusBadRequest},
		{"unknown method", BuildRequest{Method: "nope", Parts: 2, Edges: [][2]uint32{{0, 1}}}, http.StatusBadRequest},
		{"bad name", BuildRequest{Method: "random", Parts: 2, Name: "../evil",
			Edges: [][2]uint32{{0, 1}}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := doJSON(t, h, http.MethodPost, "/api/graphs", c.req)
		if rec.Code != c.code {
			t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, c.code, rec.Body)
		}
	}
}

func TestStoreNameCollisionAndCap(t *testing.T) {
	h, _ := serveDir(t, t.TempDir(), 100_000, time.Minute, 2)
	req := BuildRequest{Method: "random", Parts: 2, Name: "mine", Edges: [][2]uint32{{0, 1}, {1, 2}}}
	if rec := doJSON(t, h, http.MethodPost, "/api/graphs", req); rec.Code != http.StatusOK {
		t.Fatalf("first build: %d", rec.Code)
	}
	if rec := doJSON(t, h, http.MethodPost, "/api/graphs", req); rec.Code != http.StatusConflict {
		t.Fatalf("name collision status %d, want 409", rec.Code)
	}
	req.Name = "other"
	if rec := doJSON(t, h, http.MethodPost, "/api/graphs", req); rec.Code != http.StatusOK {
		t.Fatalf("second build: %d", rec.Code)
	}
	req.Name = "overflow"
	if rec := doJSON(t, h, http.MethodPost, "/api/graphs", req); rec.Code != http.StatusConflict {
		t.Fatalf("cap overflow status %d, want 409", rec.Code)
	}
	if rec := doJSON(t, h, http.MethodPost, "/api/graphs/overflow/ingest",
		IngestRequest{Parts: 2, Edges: [][2]uint32{{0, 1}}}); rec.Code != http.StatusConflict {
		t.Fatalf("cap overflow by ingest status %d, want 409", rec.Code)
	}
}

// TestStorePersistenceAcrossRestart: a graph built under a graph directory
// is served again by a fresh server over the same directory, with its
// provenance — the restart path the directory exists for.
func TestStorePersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	h1, gr1 := serveDir(t, dir, 100_000, time.Minute, 4)
	info := buildTestStore(t, h1, BuildRequest{
		Method: "hdrf", Parts: 3, Name: "persisted", Edges: ringEdges(50),
	})
	v := uint32(10)
	recA := doJSON(t, h1, http.MethodPost, "/api/graphs/persisted/neighbors", NeighborsRequest{Vertex: &v})
	if err := gr1.close(); err != nil {
		t.Fatal(err)
	}

	h2, _ := serveDir(t, dir, 100_000, time.Minute, 4)
	list := listGraphs(t, h2)
	if len(list) != 1 || list[0].Graph != "persisted" || !list[0].Restored {
		t.Fatalf("restored list %+v", list)
	}
	if list[0].Method != "HDRF" {
		t.Errorf("restored method %q, want HDRF (sidecar lost)", list[0].Method)
	}
	if list[0].Stats.NumEdges != info.Stats.NumEdges || list[0].Stats.ReplicationFactor != info.Stats.ReplicationFactor {
		t.Errorf("restored shape %+v != built %+v", list[0].Stats, info.Stats)
	}

	// Queries against the restored graph answer identically.
	recB := doJSON(t, h2, http.MethodPost, "/api/graphs/persisted/neighbors", NeighborsRequest{Vertex: &v})
	if recA.Code != http.StatusOK || recB.Code != http.StatusOK {
		t.Fatalf("query status %d / %d", recA.Code, recB.Code)
	}
	a, b := decode[NeighborsResponse](t, recA), decode[NeighborsResponse](t, recB)
	if len(a.Results) != 1 || len(b.Results) != 1 || a.Results[0].Degree != b.Results[0].Degree {
		t.Fatalf("restored answers diverge: %+v vs %+v", a, b)
	}
	for i := range a.Results[0].Neighbors {
		if a.Results[0].Neighbors[i] != b.Results[0].Neighbors[i] {
			t.Fatalf("restored neighbors diverge at %d", i)
		}
	}

	// Deleting on the restored server removes the graph directory too.
	if rec := doJSON(t, h2, http.MethodDelete, "/api/graphs/persisted", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete status %d", rec.Code)
	}
	h3, _ := serveDir(t, dir, 100_000, time.Minute, 4)
	if list := listGraphs(t, h3); len(list) != 0 {
		t.Fatalf("deleted graph came back: %+v", list)
	}
}

// TestPersistFailureLeavesNoFile: a graph whose creation fails part way
// leaves no directory under the graph directory and frees its name, so a
// restart finds nothing to trip over.
func TestPersistFailureLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	h, gr := serveDir(t, dir, 100_000, time.Minute, 4)
	errFill := errors.New("disk full")
	gr.create = func(d string, _ live.Config, _ *graph.Graph, _ *partition.Partitioning) (*live.Live, error) {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(d, "shard-0000-of-0001.esz"), []byte("ESZ1 partial"), 0o644); err != nil {
			return nil, err
		}
		return nil, errFill
	}
	req := BuildRequest{Method: "random", Parts: 2, Name: "broken", Edges: ringEdges(20)}
	if rec := doJSON(t, h, http.MethodPost, "/api/graphs", req); rec.Code != http.StatusInternalServerError {
		t.Fatalf("failed create: status %d, want 500 (%s)", rec.Code, rec.Body)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("failed create left %s behind", e.Name())
	}
	if len(gr.graphs) != 0 {
		t.Errorf("failed create left %d names taken", len(gr.graphs))
	}
}

// TestRestoreDeletesCrashedPersist: a crash inside a create leaves the
// graph's directory without base 0, which Create writes last. It was never
// served, so a restart deletes it and lists no graph.
func TestRestoreDeletesCrashedPersist(t *testing.T) {
	dir := t.TempDir()
	crashed := filepath.Join(dir, "s1")
	if err := os.Mkdir(crashed, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crashed, "shard-0001-of-0002.esz"), []byte("ESZ1 partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	h, _ := serveDir(t, dir, 100_000, time.Minute, 4)
	if _, err := os.Stat(crashed); !os.IsNotExist(err) {
		t.Fatalf("crashed create's directory survived the restart: %v", err)
	}
	if list := listGraphs(t, h); len(list) != 0 {
		t.Fatalf("restored %+v from a crashed create", list)
	}
}

// TestPersistDoesNotBlockQueries: while one graph's create is stalled
// mid-write, queries to another served graph and the listing still answer,
// and the stalled name is taken but not served.
func TestPersistDoesNotBlockQueries(t *testing.T) {
	h, gr := serveDir(t, t.TempDir(), 100_000, time.Minute, 4)
	buildTestStore(t, h, BuildRequest{Method: "hdrf", Parts: 2, Name: "ready", Edges: ringEdges(20)})

	entered, release := make(chan struct{}), make(chan struct{})
	create := gr.create
	gr.create = func(dir string, cfg live.Config, g *graph.Graph, p *partition.Partitioning) (*live.Live, error) {
		close(entered)
		<-release
		return create(dir, cfg, g, p)
	}
	built := make(chan int)
	go func() {
		req := BuildRequest{Method: "hdrf", Parts: 2, Name: "slow", Edges: ringEdges(20)}
		built <- doJSON(t, h, http.MethodPost, "/api/graphs", req).Code
	}()
	<-entered

	answered := make(chan [3]int)
	go func() {
		v := uint32(3)
		answered <- [3]int{
			doJSON(t, h, http.MethodPost, "/api/graphs/ready/neighbors", NeighborsRequest{Vertex: &v}).Code,
			doJSON(t, h, http.MethodPost, "/api/graphs/slow/neighbors", NeighborsRequest{Vertex: &v}).Code,
			doJSON(t, h, http.MethodGet, "/api/graphs", nil).Code,
		}
	}()
	select {
	case got := <-answered:
		if want := [3]int{http.StatusOK, http.StatusNotFound, http.StatusOK}; got != want {
			t.Errorf("ready query, slow query, listing = %v, want %v", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a query waited on another graph's create")
	}
	req := BuildRequest{Method: "hdrf", Parts: 2, Name: "slow", Edges: ringEdges(20)}
	if code := doJSON(t, h, http.MethodPost, "/api/graphs", req).Code; code != http.StatusConflict {
		t.Errorf("building a name being created: %d, want 409", code)
	}
	close(release)
	if code := <-built; code != http.StatusOK {
		t.Fatalf("stalled build: %d", code)
	}
	if list := gr.served(); len(list) != 2 {
		t.Fatalf("%d graphs served after the create, want 2", len(list))
	}
}

func TestLiveIngestStatsQuery(t *testing.T) {
	h := newHandler(t, 100_000, time.Minute)

	// Stats before any ingest 404.
	if rec := doJSON(t, h, http.MethodGet, "/api/graphs/g/stats", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("stats before ingest: status %d", rec.Code)
	}
	// The ingest that creates a graph must declare parts.
	if rec := doJSON(t, h, http.MethodPost, "/api/graphs/g/ingest",
		IngestRequest{Edges: [][2]uint32{{0, 1}}}); rec.Code != http.StatusBadRequest {
		t.Fatalf("partless first ingest: status %d: %s", rec.Code, rec.Body)
	}

	// ringEdges repeats the chord (i, i+n/2) from both endpoints; the live
	// graph dedups, so applied is the unique canonical edge count.
	edges := ringEdges(60)
	unique := map[[2]uint32]bool{}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		unique[[2]uint32{u, v}] = true
	}
	resp := ingestBatch(t, h, "g", IngestRequest{Parts: 4, Seed: 7, Edges: edges})
	if resp.Applied != len(unique) {
		t.Fatalf("applied %d of %d unique", resp.Applied, len(unique))
	}
	if resp.Stats.NumParts != 4 || resp.Stats.NumEdges != int64(len(unique)) {
		t.Fatalf("stats %+v", resp.Stats)
	}

	// Mismatched parts on a later batch conflict.
	if rec := doJSON(t, h, http.MethodPost, "/api/graphs/g/ingest",
		IngestRequest{Parts: 8, Edges: [][2]uint32{{1, 3}}}); rec.Code != http.StatusConflict {
		t.Fatalf("mismatched parts: status %d: %s", rec.Code, rec.Body)
	}

	// Neighbors of vertex 0 on the 60-ring with chords: 1, 59, 30.
	v := uint32(0)
	rec := doJSON(t, h, http.MethodPost, "/api/graphs/g/neighbors", NeighborsRequest{Vertex: &v})
	if rec.Code != http.StatusOK {
		t.Fatalf("neighbors status %d: %s", rec.Code, rec.Body)
	}
	if nresp := decode[NeighborsResponse](t, rec); len(nresp.Results) != 1 || nresp.Results[0].Degree != 3 {
		t.Fatalf("neighbors %+v", nresp.Results)
	}

	// Delete one ring edge and re-query: the degree drops.
	if del := ingestBatch(t, h, "g", IngestRequest{Deletes: [][2]uint32{{0, 1}}}); del.Applied != 1 {
		t.Fatalf("delete applied %d", del.Applied)
	}
	rec = doJSON(t, h, http.MethodPost, "/api/graphs/g/neighbors", NeighborsRequest{Vertex: &v})
	if nresp := decode[NeighborsResponse](t, rec); nresp.Results[0].Degree != 2 {
		t.Fatalf("degree after delete %d, want 2", nresp.Results[0].Degree)
	}

	// KHop from 0 visits the whole (still connected) ring at depth 60.
	rec = doJSON(t, h, http.MethodPost, "/api/graphs/g/khop", KHopRequest{Vertex: 0, K: 30})
	if rec.Code != http.StatusOK {
		t.Fatalf("khop status %d: %s", rec.Code, rec.Body)
	}
	kresp := decode[KHopResponse](t, rec)
	if kresp.Visited != 60 {
		t.Fatalf("khop visited %d, want 60", kresp.Visited)
	}
	if kresp.Epoch == 0 {
		t.Fatal("khop served by epoch 0 (never published)")
	}

	stats := graphStats(t, h, "g", true)
	if stats.Checksum == "" {
		t.Fatal("no checksum with ?checksum=1")
	}
	if stats.Stats.NumEdges != int64(len(unique)-1) {
		t.Fatalf("stats edges %d, want %d", stats.Stats.NumEdges, len(unique)-1)
	}
}

func TestLiveCompactAndChecksumStability(t *testing.T) {
	h := newHandler(t, 100_000, time.Minute)
	ingestBatch(t, h, "g", IngestRequest{Parts: 4, Seed: 7, Edges: ringEdges(100)})

	before := graphStats(t, h, "g", true)
	rec := doJSON(t, h, http.MethodPost, "/api/graphs/g/compact", CompactRequest{})
	if rec.Code != http.StatusOK {
		t.Fatalf("compact status %d: %s", rec.Code, rec.Body)
	}
	if cresp := decode[CompactResponse](t, rec); cresp.Stats.Compactions != 1 || cresp.Stats.OverlayAdds != 0 {
		t.Fatalf("compact stats %+v", cresp.Stats)
	}
	if after := graphStats(t, h, "g", true); after.Checksum != before.Checksum {
		t.Fatalf("checksum drifted across compaction: %s vs %s", after.Checksum, before.Checksum)
	}
}

// TestLiveRestartResumesGraph: an ingested graph, closed, is served by a
// second server over the same (sealed) directory: it replays the logs and
// serves the identical graph.
func TestLiveRestartResumesGraph(t *testing.T) {
	dir := t.TempDir()
	h1, gr1 := serveDir(t, dir, 100_000, time.Minute, 2)
	ingestBatch(t, h1, "g", IngestRequest{Parts: 4, Seed: 7, Edges: ringEdges(80)})
	ingestBatch(t, h1, "g", IngestRequest{Deletes: [][2]uint32{{0, 1}, {5, 6}}})
	sum1 := graphStats(t, h1, "g", true)
	if err := gr1.close(); err != nil {
		t.Fatal(err)
	}

	h2, _ := serveDir(t, dir, 100_000, time.Minute, 2)
	sum2 := graphStats(t, h2, "g", true)
	if sum2.Checksum != sum1.Checksum || sum2.Stats.NumEdges != sum1.Stats.NumEdges {
		t.Fatalf("restart drifted: %s/%d vs %s/%d",
			sum2.Checksum, sum2.Stats.NumEdges, sum1.Checksum, sum1.Stats.NumEdges)
	}
}

// TestLiveIngestRejectsUnbackedIDs: an endpoint near 2³² that the live
// edges cannot pay for answers 400 and leaves the graph as it was.
func TestLiveIngestRejectsUnbackedIDs(t *testing.T) {
	h := newHandler(t, 100, time.Minute)
	ingestBatch(t, h, "g", IngestRequest{Parts: 4, Seed: 7, Edges: ringEdges(10)})
	before := graphStats(t, h, "g", true)
	rec := doJSON(t, h, http.MethodPost, "/api/graphs/g/ingest",
		IngestRequest{Edges: [][2]uint32{{0, 5}, {1, 1<<32 - 2}}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unbacked id: status %d, want 400: %s", rec.Code, rec.Body)
	}
	if after := graphStats(t, h, "g", true); after.Checksum != before.Checksum || after.Stats.NumEdges != before.Stats.NumEdges {
		t.Fatalf("rejected batch changed the graph: %s/%d vs %s/%d",
			after.Checksum, after.Stats.NumEdges, before.Checksum, before.Stats.NumEdges)
	}
}

func TestLiveIngestBatchCap(t *testing.T) {
	h := newHandler(t, 10, time.Minute)
	rec := doJSON(t, h, http.MethodPost, "/api/graphs/g/ingest",
		IngestRequest{Parts: 2, Edges: ringEdges(20)})
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d", rec.Code)
	}
}
