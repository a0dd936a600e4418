package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/distributedne/dne/internal/methods"
)

func doJSON(t testing.TB, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	rec := doJSON(t, newHandler(t, 1000, time.Minute), http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
}

func TestMethodsList(t *testing.T) {
	rec := doJSON(t, newHandler(t, 1000, time.Minute), http.MethodGet, "/api/methods", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var ds []methods.Descriptor
	if err := json.Unmarshal(rec.Body.Bytes(), &ds); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"dne": true, "hdrf": true, "fennel": true, "random": true}
	for _, d := range ds {
		delete(want, d.Name)
		if d.Summary == "" {
			t.Errorf("method %s: descriptor without summary", d.Name)
		}
	}
	if len(want) > 0 {
		t.Errorf("missing methods: %v", want)
	}
}

func TestPartitionExplicitEdges(t *testing.T) {
	req := Request{
		Method: "dne", Parts: 2, EchoEdges: true,
		Edges: [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {1, 3}},
	}
	rec := doJSON(t, newHandler(t, 1000, time.Minute), http.MethodPost, "/api/partition", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.NumEdges != 6 || len(resp.Owners) != 6 || len(resp.Edges) != 6 {
		t.Fatalf("shape: %+v", resp)
	}
	for i, o := range resp.Owners {
		if o < 0 || o >= 2 {
			t.Fatalf("owner[%d] = %d", i, o)
		}
	}
	if resp.Quality.ReplicationFactor < 1 {
		t.Errorf("RF %v", resp.Quality.ReplicationFactor)
	}
	if resp.Stats.Iterations <= 0 {
		t.Errorf("dne response missing iterations: %+v", resp)
	}
}

func TestPartitionRMATSpec(t *testing.T) {
	req := Request{Method: "hdrf", Parts: 8, RMAT: &RMATSpec{Scale: 10, EF: 8, Seed: 3}}
	rec := doJSON(t, newHandler(t, 1_000_000, time.Minute), http.MethodPost, "/api/partition", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Method != "HDRF" || int64(len(resp.Owners)) != resp.NumEdges {
		t.Fatalf("resp %+v", resp)
	}
	if resp.Edges != nil {
		t.Error("edges echoed without echoEdges")
	}
}

func TestPartitionDeterministicForSeed(t *testing.T) {
	req := Request{Method: "dne", Parts: 4, Seed: 9, RMAT: &RMATSpec{Scale: 9, EF: 8, Seed: 3}}
	h := newHandler(t, 1_000_000, time.Minute)
	var a, b Response
	if err := json.Unmarshal(doJSON(t, h, http.MethodPost, "/api/partition", req).Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doJSON(t, h, http.MethodPost, "/api/partition", req).Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	for i := range a.Owners {
		if a.Owners[i] != b.Owners[i] {
			t.Fatalf("owners differ at %d", i)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	h := newHandler(t, 100, time.Minute)
	cases := []struct {
		name string
		req  Request
		code int
	}{
		{"no graph", Request{Method: "dne", Parts: 4}, http.StatusBadRequest},
		{"both inputs", Request{Method: "dne", Parts: 4,
			Edges: [][2]uint32{{0, 1}}, RMAT: &RMATSpec{Scale: 5, EF: 2}}, http.StatusBadRequest},
		{"bad parts", Request{Method: "dne", Parts: 0, Edges: [][2]uint32{{0, 1}}}, http.StatusBadRequest},
		{"unknown method", Request{Method: "nope", Parts: 2, Edges: [][2]uint32{{0, 1}}}, http.StatusBadRequest},
		{"self loops only", Request{Method: "dne", Parts: 2, Edges: [][2]uint32{{1, 1}}}, http.StatusBadRequest},
		{"rmat too big", Request{Method: "dne", Parts: 2, RMAT: &RMATSpec{Scale: 20, EF: 64}}, http.StatusBadRequest},
		{"rmat bad scale", Request{Method: "dne", Parts: 2, RMAT: &RMATSpec{Scale: 0, EF: 2}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := doJSON(t, h, http.MethodPost, "/api/partition", c.req)
		if rec.Code != c.code {
			t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, c.code, rec.Body)
		}
	}
}

func TestPartitionRejectsUnknownFields(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/api/partition",
		bytes.NewBufferString(`{"method":"dne","parts":2,"bogus":1}`))
	rec := httptest.NewRecorder()
	newHandler(t, 100, time.Minute).ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d", rec.Code)
	}
}

func TestPartitionEdgeCap(t *testing.T) {
	edges := make([][2]uint32, 50)
	for i := range edges {
		edges[i] = [2]uint32{uint32(i), uint32(i + 1)}
	}
	rec := doJSON(t, newHandler(t, 10, time.Minute), http.MethodPost, "/api/partition",
		Request{Method: "random", Parts: 2, Edges: edges})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (cap)", rec.Code)
	}
}

// TestPartitionRejectsUnbackedVertexClaim: a request whose largest id its
// edges do not back under graph.VertexClaimOK is refused with 400 before
// anything is sized by the id, and so is one whose claim only duplicates
// backed: the built graph is checked again.
func TestPartitionRejectsUnbackedVertexClaim(t *testing.T) {
	h := newHandler(t, 100_000, time.Minute)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	req := httptest.NewRequest(http.MethodPost, "/api/partition",
		bytes.NewBufferString(`{"method":"random","parts":2,"edges":[[0,300000000]]}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "backed") {
		t.Fatalf("status %d (%s), want 400 for the unbacked claim", rec.Code, rec.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
		t.Errorf("refusing the claim allocated %d bytes", alloc)
	}

	dups := make([][2]uint32, 10_000)
	for i := range dups {
		dups[i] = [2]uint32{0, 2_000_000}
	}
	if rec := doJSON(t, h, http.MethodPost, "/api/partition", Request{Method: "random", Parts: 2, Edges: dups}); rec.Code != http.StatusBadRequest {
		t.Fatalf("duplicates backing the claim: status %d, want 400", rec.Code)
	}
}

// TestOversizedBodyReturns413: a body past maxBodyBytes(-max-edges) is cut
// off mid-read and answered 413, on the partition route and on a graph
// route; a body just under the cap still decodes.
func TestOversizedBodyReturns413(t *testing.T) {
	const maxEdges = 10
	h := newHandler(t, maxEdges, time.Minute)
	limit := maxBodyBytes(maxEdges)
	// The padding sits inside the JSON value, so the decoder must read it.
	pad := func(fields string, n int64) *bytes.Buffer {
		return bytes.NewBufferString("{" + fields + strings.Repeat(" ", int(n)) + "}")
	}
	const partition = `"method":"random","parts":2,"edges":[[0,1]]`
	for _, c := range []struct{ path, fields string }{{"/api/partition", partition}, {"/api/graphs/g/compact", ""}} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, pad(c.fields, limit)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413 (%s)", c.path, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/partition", pad(partition, limit-100)))
	if rec.Code != http.StatusOK {
		t.Errorf("body under the cap: status %d (%s)", rec.Code, rec.Body)
	}
}

func TestAllRegisteredMethodsServable(t *testing.T) {
	// Every registry name must partition a small graph through the service.
	h := newHandler(t, 100_000, time.Minute)
	for _, name := range methods.Names() {
		req := Request{Method: name, Parts: 4, RMAT: &RMATSpec{Scale: 8, EF: 4, Seed: 1}}
		rec := doJSON(t, h, http.MethodPost, "/api/partition", req)
		if rec.Code != http.StatusOK {
			t.Errorf("method %s: status %d (%s)", name, rec.Code, rec.Body)
		}
	}
}

func TestParamsPassthrough(t *testing.T) {
	req := Request{
		Method: "dne", Parts: 4, RMAT: &RMATSpec{Scale: 9, EF: 8, Seed: 3},
		Params: map[string]any{"lambda": 1.0, "alpha": 1.3},
	}
	rec := doJSON(t, newHandler(t, 1_000_000, time.Minute), http.MethodPost, "/api/partition", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	// λ=1 collapses the run to very few supersteps; the param must have
	// reached the algorithm.
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Iterations <= 0 || resp.Stats.Iterations > 30 {
		t.Errorf("lambda=1 run reported %d iterations; param not applied?", resp.Stats.Iterations)
	}
}

func TestUnknownParamReturns400WithDeclaredParams(t *testing.T) {
	req := Request{
		Method: "fennel", Parts: 4, RMAT: &RMATSpec{Scale: 8, EF: 4, Seed: 1},
		Params: map[string]any{"bogus": 3},
	}
	rec := doJSON(t, newHandler(t, 1_000_000, time.Minute), http.MethodPost, "/api/partition", req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", rec.Code, rec.Body)
	}
	var body struct {
		Error          string              `json:"error"`
		Method         string              `json:"method"`
		DeclaredParams []methods.ParamSpec `json:"declaredParams"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Method != "fennel" || len(body.DeclaredParams) == 0 {
		t.Fatalf("error body lacks declared params: %s", rec.Body)
	}
	if body.DeclaredParams[0].Name != "gamma" {
		t.Errorf("declared params = %+v, want gamma", body.DeclaredParams)
	}
}

func TestOutOfBoundsParamReturns400(t *testing.T) {
	req := Request{
		Method: "dne", Parts: 4, Edges: [][2]uint32{{0, 1}, {1, 2}},
		Params: map[string]any{"alpha": 0.2},
	}
	rec := doJSON(t, newHandler(t, 1000, time.Minute), http.MethodPost, "/api/partition", req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", rec.Code, rec.Body)
	}
}

func TestRequestTimeoutReturns504(t *testing.T) {
	req := Request{Method: "dne", Parts: 8, RMAT: &RMATSpec{Scale: 12, EF: 16, Seed: 3}}
	rec := doJSON(t, newHandler(t, 1_000_000, time.Nanosecond), http.MethodPost, "/api/partition", req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", rec.Code, rec.Body)
	}
}
