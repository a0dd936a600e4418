package main

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

func ingestBatch(t *testing.T, h http.Handler, req LiveIngestRequest) LiveIngestResponse {
	t.Helper()
	rec := doJSON(t, h, http.MethodPost, "/api/live/ingest", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
	}
	var resp LiveIngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func liveStats(t *testing.T, h http.Handler, checksum bool) LiveStatsResponse {
	t.Helper()
	path := "/api/live/stats"
	if checksum {
		path += "?checksum=1"
	}
	rec := doJSON(t, h, http.MethodGet, path, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d: %s", rec.Code, rec.Body)
	}
	var resp LiveStatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestLiveIngestStatsQuery(t *testing.T) {
	h, lsvc, _, errs := newHandlerWithLive(100_000, time.Minute, 2, "", t.TempDir(), admissionLimits{})
	if len(errs) != 0 {
		t.Fatalf("restore errors: %v", errs)
	}
	defer lsvc.close()

	// Queries before any ingest 404.
	if rec := doJSON(t, h, http.MethodGet, "/api/live/stats", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("stats before ingest: status %d", rec.Code)
	}
	// First ingest must declare parts.
	if rec := doJSON(t, h, http.MethodPost, "/api/live/ingest",
		LiveIngestRequest{Edges: [][2]uint32{{0, 1}}}); rec.Code != http.StatusBadRequest {
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
	resp := ingestBatch(t, h, LiveIngestRequest{Parts: 4, Seed: 7, Edges: edges})
	if resp.Applied != len(unique) {
		t.Fatalf("applied %d of %d unique", resp.Applied, len(unique))
	}
	if resp.Stats.NumParts != 4 || resp.Stats.NumEdges != int64(len(unique)) {
		t.Fatalf("stats %+v", resp.Stats)
	}

	// Mismatched parts on a later batch conflict.
	if rec := doJSON(t, h, http.MethodPost, "/api/live/ingest",
		LiveIngestRequest{Parts: 8, Edges: [][2]uint32{{1, 3}}}); rec.Code != http.StatusConflict {
		t.Fatalf("mismatched parts: status %d: %s", rec.Code, rec.Body)
	}

	// Neighbors of vertex 0 on the 60-ring with chords: 1, 59, 30.
	v := uint32(0)
	rec := doJSON(t, h, http.MethodPost, "/api/live/query/neighbors", LiveNeighborsRequest{Vertex: &v})
	if rec.Code != http.StatusOK {
		t.Fatalf("neighbors status %d: %s", rec.Code, rec.Body)
	}
	var nresp LiveNeighborsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &nresp); err != nil {
		t.Fatal(err)
	}
	if len(nresp.Results) != 1 || nresp.Results[0].Degree != 3 {
		t.Fatalf("neighbors %+v", nresp.Results)
	}

	// Delete one ring edge and re-query: the degree drops.
	del := ingestBatch(t, h, LiveIngestRequest{Deletes: [][2]uint32{{0, 1}}})
	if del.Applied != 1 {
		t.Fatalf("delete applied %d", del.Applied)
	}
	rec = doJSON(t, h, http.MethodPost, "/api/live/query/neighbors", LiveNeighborsRequest{Vertex: &v})
	if err := json.Unmarshal(rec.Body.Bytes(), &nresp); err != nil {
		t.Fatal(err)
	}
	if nresp.Results[0].Degree != 2 {
		t.Fatalf("degree after delete %d, want 2", nresp.Results[0].Degree)
	}

	// KHop from 0 visits the whole (still connected) ring at depth 60.
	rec = doJSON(t, h, http.MethodPost, "/api/live/query/khop", LiveKHopRequest{Vertex: 0, K: 30})
	if rec.Code != http.StatusOK {
		t.Fatalf("khop status %d: %s", rec.Code, rec.Body)
	}
	var kresp LiveKHopResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &kresp); err != nil {
		t.Fatal(err)
	}
	if kresp.Visited != 60 {
		t.Fatalf("khop visited %d, want 60", kresp.Visited)
	}
	if kresp.Epoch == 0 {
		t.Fatal("khop served by epoch 0 (never published)")
	}

	stats := liveStats(t, h, true)
	if stats.Checksum == "" {
		t.Fatal("no checksum with ?checksum=1")
	}
	if stats.Stats.NumEdges != int64(len(unique)-1) {
		t.Fatalf("stats edges %d, want %d", stats.Stats.NumEdges, len(unique)-1)
	}
}

func TestLiveCompactAndChecksumStability(t *testing.T) {
	h, lsvc, _, _ := newHandlerWithLive(100_000, time.Minute, 2, "", t.TempDir(), admissionLimits{})
	defer lsvc.close()
	ingestBatch(t, h, LiveIngestRequest{Parts: 4, Seed: 7, Edges: ringEdges(100)})

	before := liveStats(t, h, true)
	rec := doJSON(t, h, http.MethodPost, "/api/live/compact", LiveCompactRequest{})
	if rec.Code != http.StatusOK {
		t.Fatalf("compact status %d: %s", rec.Code, rec.Body)
	}
	var cresp LiveCompactResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cresp); err != nil {
		t.Fatal(err)
	}
	if cresp.Stats.Compactions != 1 || cresp.Stats.OverlayAdds != 0 {
		t.Fatalf("compact stats %+v", cresp.Stats)
	}
	after := liveStats(t, h, true)
	if after.Checksum != before.Checksum {
		t.Fatalf("checksum drifted across compaction: %s vs %s", after.Checksum, before.Checksum)
	}
}

func TestLiveRestartResumesGraph(t *testing.T) {
	dir := t.TempDir()
	h1, lsvc1, _, _ := newHandlerWithLive(100_000, time.Minute, 2, "", dir, admissionLimits{})
	ingestBatch(t, h1, LiveIngestRequest{Parts: 4, Seed: 7, Edges: ringEdges(80)})
	ingestBatch(t, h1, LiveIngestRequest{Deletes: [][2]uint32{{0, 1}, {5, 6}}})
	sum1 := liveStats(t, h1, true)
	if err := lsvc1.close(); err != nil {
		t.Fatal(err)
	}

	// A second handler over the same (sealed) directory replays the logs and
	// serves the identical graph.
	h2, lsvc2, _, errs := newHandlerWithLive(100_000, time.Minute, 2, "", dir, admissionLimits{})
	if len(errs) != 0 {
		t.Fatalf("restore errors: %v", errs)
	}
	defer lsvc2.close()
	sum2 := liveStats(t, h2, true)
	if sum2.Checksum != sum1.Checksum || sum2.Stats.NumEdges != sum1.Stats.NumEdges {
		t.Fatalf("restart drifted: %s/%d vs %s/%d",
			sum2.Checksum, sum2.Stats.NumEdges, sum1.Checksum, sum1.Stats.NumEdges)
	}
}

// TestLiveIngestRejectsUnbackedIDs: an endpoint near 2³² that the live
// edges cannot pay for answers 400 and leaves the graph as it was.
func TestLiveIngestRejectsUnbackedIDs(t *testing.T) {
	h, lsvc, _, _ := newHandlerWithLive(100, time.Minute, 2, "", t.TempDir(), admissionLimits{})
	defer lsvc.close()
	ingestBatch(t, h, LiveIngestRequest{Parts: 4, Seed: 7, Edges: ringEdges(10)})
	before := liveStats(t, h, true)
	rec := doJSON(t, h, http.MethodPost, "/api/live/ingest",
		LiveIngestRequest{Edges: [][2]uint32{{0, 5}, {1, 1<<32 - 2}}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unbacked id: status %d, want 400: %s", rec.Code, rec.Body)
	}
	if after := liveStats(t, h, true); after.Checksum != before.Checksum || after.Stats.NumEdges != before.Stats.NumEdges {
		t.Fatalf("rejected batch changed the graph: %s/%d vs %s/%d",
			after.Checksum, after.Stats.NumEdges, before.Checksum, before.Stats.NumEdges)
	}
}

func TestLiveIngestBatchCap(t *testing.T) {
	h, lsvc, _, _ := newHandlerWithLive(10, time.Minute, 2, "", t.TempDir(), admissionLimits{})
	defer lsvc.close()
	rec := doJSON(t, h, http.MethodPost, "/api/live/ingest",
		LiveIngestRequest{Parts: 2, Edges: ringEdges(20)})
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d", rec.Code)
	}
}
