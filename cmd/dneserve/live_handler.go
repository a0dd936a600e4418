package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/distributedne/dne/internal/dynpart"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/live"
	"github.com/distributedne/dne/internal/obs"
)

// The live endpoints expose internal/live over HTTP: one dynamic graph per
// server, rooted at -live-dir (an ephemeral temp directory when unset).
// /api/live/ingest appends edge insertions and deletions, placing each new
// edge incrementally; queries run against the epoch published by the last
// batch, so a traversal in flight never observes a partial batch —
// ingestion, compaction and rebalancing proceed underneath it.

// liveService guards the server's single live graph. Mutations serialize
// inside Live itself; this lock only covers lazy opening.
type liveService struct {
	mu  sync.Mutex
	dir string // "" = create a temp dir at first ingest
	lv  *live.Live

	// reg, when set, receives the live graph's metric families as soon as
	// the graph is opened; latNeighbors/latKHop time the live query routes
	// into dne_live_query_duration_seconds. All nil-safe.
	reg          *obs.Registry
	latNeighbors *obs.Histogram
	latKHop      *obs.Histogram
}

func newLiveService(dir string) *liveService {
	return &liveService{dir: dir}
}

// restore reopens an existing live directory at startup so the server comes
// back serving the graph it held. A fresh (or unset) directory is not an
// error — the graph is created lazily by the first ingest.
func (ls *liveService) restore() []error {
	if ls.dir == "" {
		return nil
	}
	if bases, err := filepath.Glob(filepath.Join(ls.dir, "shard-0000-of-*.esz")); err != nil || len(bases) == 0 {
		return nil
	}
	lv, err := live.Open(ls.dir, live.Config{})
	if err != nil {
		return []error{fmt.Errorf("live: restoring %s: %w", ls.dir, err)}
	}
	if rec := lv.Recovery(); rec.Recovered() {
		log.Printf("dneserve: live crash recovery in %s: %s", ls.dir, rec)
	}
	lv.RegisterMetrics(ls.reg)
	ls.lv = lv
	return nil
}

// open returns the live graph, creating it on first use. parts is only
// consulted when the graph does not exist yet; afterwards a non-zero
// mismatch is rejected so clients can't silently ingest into a different
// partitioning than they asked for.
func (ls *liveService) open(parts int, seed int64) (*live.Live, int, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.lv != nil {
		if parts != 0 && parts != ls.lv.State().NumParts() {
			return nil, http.StatusConflict,
				fmt.Errorf("live graph has %d partitions, request asks %d", ls.lv.State().NumParts(), parts)
		}
		return ls.lv, http.StatusOK, nil
	}
	if parts <= 0 {
		return nil, http.StatusBadRequest,
			fmt.Errorf("no live graph yet; first ingest must set parts > 0")
	}
	if ls.dir == "" {
		dir, err := os.MkdirTemp("", "dneserve-live-")
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		ls.dir = dir
	}
	lv, err := live.Open(ls.dir, live.Config{NumParts: parts, Seed: seed})
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	lv.RegisterMetrics(ls.reg)
	ls.lv = lv
	return lv, http.StatusOK, nil
}

// close seals the live graph's logs; a later process (or handler)
// can then adopt the directory. Safe to call with no graph open.
func (ls *liveService) close() error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.lv == nil {
		return nil
	}
	err := ls.lv.Close()
	ls.lv = nil
	return err
}

// get returns the live graph or a 404-shaped error when none exists yet.
func (ls *liveService) get() (*live.Live, int, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.lv == nil {
		return nil, http.StatusNotFound, fmt.Errorf("no live graph (POST /api/live/ingest first)")
	}
	return ls.lv, http.StatusOK, nil
}

// LiveIngestRequest is one /api/live/ingest batch. Edges are inserted, then
// Deletes removed, in order. Parts and Seed configure the graph on the
// first batch and must agree (or be zero) afterwards.
type LiveIngestRequest struct {
	Parts   int         `json:"parts,omitempty"`
	Seed    int64       `json:"seed,omitempty"`
	Edges   [][2]uint32 `json:"edges,omitempty"`
	Deletes [][2]uint32 `json:"deletes,omitempty"`
}

// LiveIngestResponse reports what one batch changed.
type LiveIngestResponse struct {
	Applied   int        `json:"applied"`
	ElapsedMS float64    `json:"elapsedMs"`
	Stats     live.Stats `json:"stats"`
}

// LiveStatsResponse is /api/live/stats: the subsystem counters, plus the
// full-graph checksum when ?checksum=1 (it walks every live edge, so it is
// opt-in).
type LiveStatsResponse struct {
	Dir      string     `json:"dir"`
	Stats    live.Stats `json:"stats"`
	Checksum string     `json:"checksum,omitempty"`
}

// LiveCompactRequest tunes /api/live/compact: a positive RebalanceBudget
// migrates up to that many edges off overloaded partitions first.
type LiveCompactRequest struct {
	RebalanceBudget int `json:"rebalanceBudget,omitempty"`
}

// LiveCompactResponse reports the maintenance pass.
type LiveCompactResponse struct {
	Moved     int        `json:"moved"`
	ElapsedMS float64    `json:"elapsedMs"`
	Stats     live.Stats `json:"stats"`
}

// LiveNeighborsRequest queries one vertex or a batch against the current
// epoch.
type LiveNeighborsRequest struct {
	Vertex   *uint32  `json:"vertex,omitempty"`
	Vertices []uint32 `json:"vertices,omitempty"`
}

// LiveNeighborsResponse carries the answers plus the epoch that served
// them.
type LiveNeighborsResponse struct {
	Epoch     uint64            `json:"epoch"`
	Results   []VertexNeighbors `json:"results"`
	ElapsedMS float64           `json:"elapsedMs"`
}

// LiveKHopRequest asks for a k-hop traversal against the current epoch.
type LiveKHopRequest struct {
	Vertex uint32 `json:"vertex"`
	K      int    `json:"k"`
}

// LiveKHopResponse mirrors KHopResponse with the serving epoch in place of
// a store id.
type LiveKHopResponse struct {
	Epoch uint64 `json:"epoch"`
	KHopAnswer
}

// register wires the live endpoints onto mux.
func (ls *liveService) register(mux *http.ServeMux, maxEdges int64, reqTimeout time.Duration) {
	handle(mux, "POST /api/live/ingest", reqTimeout, func(_ context.Context, req *LiveIngestRequest) (any, int, error) {
		if n := int64(len(req.Edges) + len(req.Deletes)); n > maxEdges {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("batch has %d events, server cap is %d", n, maxEdges)
		}
		lv, status, err := ls.open(req.Parts, req.Seed)
		if err != nil {
			return nil, status, err
		}
		events := make([]dynpart.Event, 0, len(req.Edges)+len(req.Deletes))
		for _, e := range req.Edges {
			events = append(events, dynpart.Event{Op: dynpart.Add, Edge: graph.Edge{U: e[0], V: e[1]}})
		}
		for _, e := range req.Deletes {
			events = append(events, dynpart.Event{Op: dynpart.Remove, Edge: graph.Edge{U: e[0], V: e[1]}})
		}
		start := time.Now()
		applied, err := lv.Apply(events)
		if errors.Is(err, live.ErrVertexClaim) {
			return nil, http.StatusBadRequest, err
		}
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		return &LiveIngestResponse{Applied: applied, ElapsedMS: millis(time.Since(start)), Stats: lv.Stats()},
			http.StatusOK, nil
	})
	mux.HandleFunc("GET /api/live/stats", func(w http.ResponseWriter, r *http.Request) {
		lv, status, err := ls.get()
		if err != nil {
			writeJSON(w, status, errorBody{Error: err.Error()})
			return
		}
		resp := LiveStatsResponse{Dir: ls.dir, Stats: lv.Stats()}
		if r.URL.Query().Get("checksum") == "1" {
			resp.Checksum = fmt.Sprintf("%#x", lv.Checksum())
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /api/live/compact", func(w http.ResponseWriter, r *http.Request) {
		var req LiveCompactRequest
		if r.ContentLength != 0 {
			if !decodeJSON(w, r, &req) {
				return
			}
		}
		lv, status, err := ls.get()
		if err != nil {
			writeJSON(w, status, errorBody{Error: err.Error()})
			return
		}
		start := time.Now()
		moved := 0
		if req.RebalanceBudget > 0 {
			if moved, err = lv.Rebalance(req.RebalanceBudget); err != nil {
				writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
				return
			}
		}
		if err := lv.Compact(); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, LiveCompactResponse{
			Moved:     moved,
			ElapsedMS: millis(time.Since(start)),
			Stats:     lv.Stats(),
		})
	})
	// Each query pins one epoch: every answer of a batch is consistent with
	// the same snapshot even while ingestion continues.
	handle(mux, "POST /api/live/query/neighbors", reqTimeout, func(ctx context.Context, req *LiveNeighborsRequest) (any, int, error) {
		lv, status, err := ls.get()
		if err != nil {
			return nil, status, err
		}
		ep := lv.Epoch()
		ans, status, err := answerNeighbors(ctx, ep, req.Vertex, req.Vertices)
		if err != nil {
			return nil, status, err
		}
		ls.latNeighbors.Observe(int64(ans.elapsed))
		return &LiveNeighborsResponse{Epoch: ep.Seq(), Results: ans.results, ElapsedMS: millis(ans.elapsed)},
			http.StatusOK, nil
	})
	handle(mux, "POST /api/live/query/khop", reqTimeout, func(ctx context.Context, req *LiveKHopRequest) (any, int, error) {
		lv, status, err := ls.get()
		if err != nil {
			return nil, status, err
		}
		ep := lv.Epoch()
		ans, status, err := answerKHop(ctx, ep, req.Vertex, req.K)
		if err != nil {
			return nil, status, err
		}
		ls.latKHop.Observe(int64(ans.elapsed))
		return &LiveKHopResponse{Epoch: ep.Seq(), KHopAnswer: *ans}, http.StatusOK, nil
	})
}
