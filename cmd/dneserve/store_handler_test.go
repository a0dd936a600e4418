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

	"github.com/distributedne/dne/internal/store"
)

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

func buildTestStore(t *testing.T, h http.Handler, req StoreBuildRequest) StoreInfo {
	t.Helper()
	rec := doJSON(t, h, http.MethodPost, "/api/store/build", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("store build status %d: %s", rec.Code, rec.Body)
	}
	var info StoreInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	return info
}

func TestStoreBuildAndList(t *testing.T) {
	h := newHandler(100_000, time.Minute)
	info := buildTestStore(t, h, StoreBuildRequest{
		Method: "hdrf", Parts: 4, Edges: ringEdges(100),
	})
	if info.Store == "" || info.Method != "HDRF" || info.Parts != 4 {
		t.Fatalf("info %+v", info)
	}
	if info.ReplicationFactor < 1 || len(info.Shards) != 4 {
		t.Fatalf("info %+v", info)
	}
	var totalEdges int64
	for _, s := range info.Shards {
		totalEdges += s.Edges
	}
	if totalEdges != info.NumEdges {
		t.Errorf("shard edges %d != total %d", totalEdges, info.NumEdges)
	}

	rec := doJSON(t, h, http.MethodGet, "/api/store", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("list status %d", rec.Code)
	}
	var list []StoreStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Store != info.Store {
		t.Fatalf("list %+v", list)
	}

	if rec := doJSON(t, h, http.MethodDelete, "/api/store/"+info.Store, nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete status %d", rec.Code)
	}
	if rec := doJSON(t, h, http.MethodDelete, "/api/store/"+info.Store, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("double delete status %d", rec.Code)
	}
}

func TestQueryNeighbors(t *testing.T) {
	h := newHandler(100_000, time.Minute)
	info := buildTestStore(t, h, StoreBuildRequest{
		Method: "random", Parts: 4, Seed: 3, Edges: [][2]uint32{{0, 1}, {0, 2}, {0, 3}, {1, 2}},
	})
	v := uint32(0)
	rec := doJSON(t, h, http.MethodPost, "/api/query/neighbors",
		NeighborsRequest{Store: info.Store, Vertex: &v})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp NeighborsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Degree != 3 {
		t.Fatalf("resp %+v", resp)
	}
	if got := resp.Results[0].Neighbors; len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("neighbors %v", got)
	}

	rec = doJSON(t, h, http.MethodPost, "/api/query/neighbors",
		NeighborsRequest{Store: info.Store, Vertices: []uint32{1, 2}})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("batch resp %+v", resp)
	}
}

// TestQueryKHopMatchesOracle is the serving acceptance check: the endpoint's
// answer equals a BFS oracle computed directly on the request edges.
func TestQueryKHopMatchesOracle(t *testing.T) {
	h := newHandler(100_000, time.Minute)
	edges := ringEdges(60)
	info := buildTestStore(t, h, StoreBuildRequest{Method: "dne", Parts: 5, Seed: 2, Edges: edges})

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
		rec := doJSON(t, h, http.MethodPost, "/api/query/khop",
			KHopRequest{Store: info.Store, Vertex: tc.src, K: tc.k})
		if rec.Code != http.StatusOK {
			t.Fatalf("khop(%d,%d) status %d: %s", tc.src, tc.k, rec.Code, rec.Body)
		}
		var resp KHopResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
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

// TestQueryErrors runs one error table against both query families: the
// store routes and the live routes share parsing, bounds and statuses.
func TestQueryErrors(t *testing.T) {
	h, lsvc, _, errs := newHandlerWithLive(100_000, time.Minute, 2, "", t.TempDir(), admissionLimits{})
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	defer lsvc.close()
	// Nothing to query yet: an unknown store, and no live graph.
	for path, body := range map[string]map[string]any{
		"/api/query/neighbors":      {"store": "nope", "vertex": 0},
		"/api/query/khop":           {"store": "nope", "vertex": 0, "k": 1},
		"/api/live/query/neighbors": {"vertex": 0},
		"/api/live/query/khop":      {"vertex": 0, "k": 1},
	} {
		if rec := doJSON(t, h, http.MethodPost, path, body); rec.Code != http.StatusNotFound {
			t.Errorf("%s with nothing to query: status %d, want 404 (%s)", path, rec.Code, rec.Body)
		}
	}
	info := buildTestStore(t, h, StoreBuildRequest{
		Method: "random", Parts: 2, Edges: [][2]uint32{{0, 1}, {1, 2}},
	})
	ingestBatch(t, h, LiveIngestRequest{Parts: 2, Edges: [][2]uint32{{0, 1}, {1, 2}}})

	families := []struct {
		prefix string
		fields map[string]any // what names the queried graph
	}{
		{"/api/query/", map[string]any{"store": info.Store}},
		{"/api/live/query/", map[string]any{}},
	}
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
		{"khop k too large", "khop", map[string]any{"vertex": 0, "k": 1000}, http.StatusBadRequest},
		{"khop bad vertex", "khop", map[string]any{"vertex": 999, "k": 1}, http.StatusBadRequest},
		{"khop unknown field", "khop", map[string]any{"vertex": 0, "k": 1, "bogus": 1}, http.StatusBadRequest},
	}
	for _, f := range families {
		for _, c := range cases {
			body := maps.Clone(c.body)
			maps.Copy(body, f.fields)
			rec := doJSON(t, h, http.MethodPost, f.prefix+c.route, body)
			if rec.Code != c.code {
				t.Errorf("%s%s %s: status %d, want %d (%s)", f.prefix, c.route, c.name, rec.Code, c.code, rec.Body)
			}
		}
	}
	// The live routes name no store: a store field is an unknown field there.
	v := uint32(0)
	if rec := doJSON(t, h, http.MethodPost, "/api/live/query/neighbors",
		NeighborsRequest{Store: info.Store, Vertex: &v}); rec.Code != http.StatusBadRequest {
		t.Errorf("live neighbors with a store field: status %d, want 400", rec.Code)
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
// both neighbors routes alike.
func TestCancelledRequestsReturn408(t *testing.T) {
	h, lsvc, _, errs := newHandlerWithLive(100_000, time.Minute, 2, "", t.TempDir(), admissionLimits{})
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	defer lsvc.close()
	info := buildTestStore(t, h, StoreBuildRequest{Method: "random", Parts: 2, Edges: ringEdges(20)})
	ingestBatch(t, h, LiveIngestRequest{Parts: 2, Edges: ringEdges(20)})
	rmat := &RMATSpec{Scale: 8, EF: 8, Seed: 1}
	v := uint32(0)
	for _, c := range []struct {
		path string
		body any
	}{
		{"/api/partition", Request{Method: "dne", Parts: 4, RMAT: rmat}},
		{"/api/store/build", StoreBuildRequest{Method: "dne", Parts: 4, RMAT: rmat}},
		{"/api/query/neighbors", NeighborsRequest{Store: info.Store, Vertex: &v}},
		{"/api/live/query/neighbors", LiveNeighborsRequest{Vertices: []uint32{0, 1, 2}}},
	} {
		if rec := doCancelled(t, h, c.path, c.body); rec.Code != http.StatusRequestTimeout {
			t.Errorf("%s: status %d, want 408 (%s)", c.path, rec.Code, rec.Body)
		}
	}
}

func TestStoreBuildErrors(t *testing.T) {
	h := newHandler(100, time.Minute)
	cases := []struct {
		name string
		req  StoreBuildRequest
		code int
	}{
		{"no graph", StoreBuildRequest{Method: "dne", Parts: 2}, http.StatusBadRequest},
		{"bad parts", StoreBuildRequest{Method: "dne", Parts: 0, Edges: [][2]uint32{{0, 1}}}, http.StatusBadRequest},
		{"unknown method", StoreBuildRequest{Method: "nope", Parts: 2, Edges: [][2]uint32{{0, 1}}}, http.StatusBadRequest},
		{"bad name", StoreBuildRequest{Method: "random", Parts: 2, Name: "../evil",
			Edges: [][2]uint32{{0, 1}}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := doJSON(t, h, http.MethodPost, "/api/store/build", c.req)
		if rec.Code != c.code {
			t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, c.code, rec.Body)
		}
	}
}

func TestStoreNameCollisionAndCap(t *testing.T) {
	h, errs := newHandlerWithStores(100_000, time.Minute, 2, "")
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	req := StoreBuildRequest{Method: "random", Parts: 2, Name: "mine", Edges: [][2]uint32{{0, 1}, {1, 2}}}
	if rec := doJSON(t, h, http.MethodPost, "/api/store/build", req); rec.Code != http.StatusOK {
		t.Fatalf("first build: %d", rec.Code)
	}
	if rec := doJSON(t, h, http.MethodPost, "/api/store/build", req); rec.Code != http.StatusConflict {
		t.Fatalf("name collision status %d, want 409", rec.Code)
	}
	req.Name = "other"
	if rec := doJSON(t, h, http.MethodPost, "/api/store/build", req); rec.Code != http.StatusOK {
		t.Fatalf("second build: %d", rec.Code)
	}
	req.Name = "overflow"
	if rec := doJSON(t, h, http.MethodPost, "/api/store/build", req); rec.Code != http.StatusConflict {
		t.Fatalf("cap overflow status %d, want 409", rec.Code)
	}
}

// TestStorePersistenceAcrossRestart: a store built with -store-dir set is
// served again by a fresh handler over the same directory — the restart
// path -store-dir exists for.
func TestStorePersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	h1, errs := newHandlerWithStores(100_000, time.Minute, 4, dir)
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	info := buildTestStore(t, h1, StoreBuildRequest{
		Method: "hdrf", Parts: 3, Name: "persisted", Edges: ringEdges(50),
	})

	h2, errs := newHandlerWithStores(100_000, time.Minute, 4, dir)
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	rec := doJSON(t, h2, http.MethodGet, "/api/store", nil)
	var list []StoreStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Store != "persisted" || !list[0].Restored {
		t.Fatalf("restored list %+v", list)
	}
	if list[0].Method != "HDRF" {
		t.Errorf("restored method %q, want HDRF (sidecar lost)", list[0].Method)
	}
	if list[0].NumEdges != info.NumEdges || list[0].ReplicationFactor != info.ReplicationFactor {
		t.Errorf("restored shape %+v != built %+v", list[0].StoreInfo, info)
	}

	// Queries against the restored store answer identically.
	v := uint32(10)
	recA := doJSON(t, h1, http.MethodPost, "/api/query/neighbors", NeighborsRequest{Store: "persisted", Vertex: &v})
	recB := doJSON(t, h2, http.MethodPost, "/api/query/neighbors", NeighborsRequest{Store: "persisted", Vertex: &v})
	if recA.Code != http.StatusOK || recB.Code != http.StatusOK {
		t.Fatalf("query status %d / %d", recA.Code, recB.Code)
	}
	var a, b NeighborsResponse
	if err := json.Unmarshal(recA.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(recB.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if len(a.Results) != 1 || len(b.Results) != 1 || a.Results[0].Degree != b.Results[0].Degree {
		t.Fatalf("restored answers diverge: %+v vs %+v", a, b)
	}
	for i := range a.Results[0].Neighbors {
		if a.Results[0].Neighbors[i] != b.Results[0].Neighbors[i] {
			t.Fatalf("restored neighbors diverge at %d", i)
		}
	}

	// Deleting on the restored server removes the store directory too.
	if rec := doJSON(t, h2, http.MethodDelete, "/api/store/persisted", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete status %d", rec.Code)
	}
	h3, _ := newHandlerWithStores(100_000, time.Minute, 4, dir)
	rec = doJSON(t, h3, http.MethodGet, "/api/store", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("deleted store came back: %+v", list)
	}
}

// TestPersistFailureLeavesNoFile: a store write that fails part way leaves
// neither <name>/ nor its temporary directory in the store directory, so a
// restart finds nothing to trip over.
func TestPersistFailureLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	sr := newStoreRegistry(4, dir)
	errFill := errors.New("disk full")
	sr.writeStore = func(tmp string, _ *store.Store) error {
		if err := os.WriteFile(filepath.Join(tmp, "shard-0000-of-0001.esz"), []byte("ESZ1 partial"), 0o644); err != nil {
			return err
		}
		return errFill
	}
	if _, err := sr.add("broken", StoreInfo{}, nil); !errors.Is(err, errFill) {
		t.Fatalf("add = %v, want the fill error", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("failed persist left %s behind", e.Name())
	}
	if len(sr.stores) != 0 {
		t.Errorf("failed persist left %d names taken", len(sr.stores))
	}
}

// TestRestoreDeletesCrashedPersist: a crash inside persist leaves its
// temporary directory, a shard file in it, under the store directory. It was
// never published, so a restart deletes it and lists no store.
func TestRestoreDeletesCrashedPersist(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, ".s1-123456")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "shard-0000-of-0001.esz"), []byte("ESZ1 partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	h, errs := newHandlerWithStores(100_000, time.Minute, 4, dir)
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("crashed persist's directory survived the restart: %v", err)
	}
	rec := doJSON(t, h, http.MethodGet, "/api/store", nil)
	var list []StoreStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("restored %+v from a crashed persist", list)
	}
}

// TestPersistDoesNotBlockQueries: while one store's persist is stalled
// mid-write, queries to another resident store and the store listing still
// answer, and the stalled name is taken but not served.
func TestPersistDoesNotBlockQueries(t *testing.T) {
	sr := newStoreRegistry(4, t.TempDir())
	mux := http.NewServeMux()
	sr.register(mux, 100_000, time.Minute)
	buildTestStore(t, mux, StoreBuildRequest{Method: "hdrf", Parts: 2, Name: "ready", Edges: ringEdges(20)})

	entered, release := make(chan struct{}), make(chan struct{})
	sr.writeStore = func(dir string, st *store.Store) error {
		close(entered)
		<-release
		return store.WriteDir(dir, st)
	}
	built := make(chan int)
	go func() {
		req := StoreBuildRequest{Method: "hdrf", Parts: 2, Name: "slow", Edges: ringEdges(20)}
		built <- doJSON(t, mux, http.MethodPost, "/api/store/build", req).Code
	}()
	<-entered

	answered := make(chan [3]int)
	go func() {
		v := uint32(3)
		answered <- [3]int{
			doJSON(t, mux, http.MethodPost, "/api/query/neighbors", NeighborsRequest{Store: "ready", Vertex: &v}).Code,
			doJSON(t, mux, http.MethodPost, "/api/query/neighbors", NeighborsRequest{Store: "slow", Vertex: &v}).Code,
			doJSON(t, mux, http.MethodGet, "/api/store", nil).Code,
		}
	}()
	select {
	case got := <-answered:
		if want := [3]int{http.StatusOK, http.StatusNotFound, http.StatusOK}; got != want {
			t.Errorf("ready query, slow query, listing = %v, want %v", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a query waited on another store's persist")
	}
	req := StoreBuildRequest{Method: "hdrf", Parts: 2, Name: "slow", Edges: ringEdges(20)}
	if code := doJSON(t, mux, http.MethodPost, "/api/store/build", req).Code; code != http.StatusConflict {
		t.Errorf("building a name being persisted: %d, want 409", code)
	}
	close(release)
	if code := <-built; code != http.StatusOK {
		t.Fatalf("stalled build: %d", code)
	}
	if list := sr.list(); len(list) != 2 {
		t.Fatalf("%d stores resident after the persist, want 2", len(list))
	}
}
