package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/methods"
	_ "github.com/distributedne/dne/internal/methods/all"
	"github.com/distributedne/dne/internal/obs"
	"github.com/distributedne/dne/internal/partition"
)

// recordPartitionPhases emits one run's timed phases into the span ring,
// tiled back to back ending now, so GET /debug/trace?format=chrome shows
// where each partitioning request spent its time.
func recordPartitionPhases(tr *obs.Tracer, method string, parts int, phases []partition.PhaseTiming) {
	if tr == nil || len(phases) == 0 {
		return
	}
	ps := make([]obs.Phase, len(phases))
	for i, ph := range phases {
		ps[i] = obs.Phase{Name: ph.Name, Elapsed: ph.Elapsed}
	}
	tr.RecordPhases("partition", time.Now(), ps, map[string]string{
		"method": method,
		"parts":  strconv.Itoa(parts),
	})
}

// RMATSpec asks the server to generate the input graph.
type RMATSpec struct {
	Scale int   `json:"scale"`
	EF    int   `json:"ef"`
	Seed  int64 `json:"seed"`
}

// Request is the /api/partition body. Params carries arbitrary per-method
// parameters; they are validated against the method's registry descriptor
// and a mismatch returns 400 with the declared parameter list.
type Request struct {
	Method string         `json:"method"`
	Parts  int            `json:"parts"`
	Seed   int64          `json:"seed,omitempty"`
	Params map[string]any `json:"params,omitempty"`
	Edges  [][2]uint32    `json:"edges,omitempty"`
	RMAT   *RMATSpec      `json:"rmat,omitempty"`
	// EchoEdges returns the canonical (deduplicated, U<=V, sorted) edge
	// list the owners are aligned with.
	EchoEdges bool `json:"echoEdges,omitempty"`
}

// Quality is the metrics block of a Response.
type Quality struct {
	ReplicationFactor float64 `json:"replicationFactor"`
	EdgeBalance       float64 `json:"edgeBalance"`
	VertexBalance     float64 `json:"vertexBalance"`
	VertexCuts        int64   `json:"vertexCuts"`
}

// Phase is one timed phase of the run.
type Phase struct {
	Name      string  `json:"name"`
	ElapsedMS float64 `json:"elapsedMs"`
}

// RunStats is the execution-statistics block of a Response, generated from
// the v2 Result.Stats.
type RunStats struct {
	Phases       []Phase            `json:"phases,omitempty"`
	Iterations   int                `json:"iterations,omitempty"`
	CommBytes    int64              `json:"commBytes,omitempty"`
	CommMessages int64              `json:"commMessages,omitempty"`
	PeakMemBytes int64              `json:"peakMemBytes,omitempty"`
	MemScore     float64            `json:"memScore,omitempty"`
	HandOffEdges int64              `json:"closingHandOffEdges,omitempty"` // assigned in one sweep when the loop ended; part of a normal dne run
	Extra        map[string]float64 `json:"extra,omitempty"`
}

// Response is the /api/partition reply.
type Response struct {
	Method    string      `json:"method"`
	Parts     int         `json:"parts"`
	NumVerts  uint32      `json:"numVertices"`
	NumEdges  int64       `json:"numEdges"`
	Owners    []int32     `json:"owners"`
	Edges     [][2]uint32 `json:"edges,omitempty"`
	Quality   Quality     `json:"quality"`
	ElapsedMS float64     `json:"elapsedMs"`
	Stats     RunStats    `json:"stats"`
}

type errorBody struct {
	Error string `json:"error"`
	// Method and DeclaredParams are set on parameter-validation failures so
	// clients can self-correct.
	Method         string              `json:"method,omitempty"`
	DeclaredParams []methods.ParamSpec `json:"declaredParams,omitempty"`
}

// newServer builds the serving handler over the graphs under graphDir,
// restoring every one (the errors of those that fail to open are returned,
// not fatal). The registry must be closed on shutdown to seal the graphs'
// tails. main points the debug listener and the access log at the returned
// serverObs. adm bounds heavy-request admission (zero = machine-sized
// defaults); overload beyond its queue is shed with 503 + Retry-After
// while reads and probes keep answering.
func newServer(maxEdges int64, reqTimeout time.Duration, maxGraphs int, graphDir string, adm admissionLimits) (http.Handler, *graphRegistry, *serverObs, []error) {
	mux := http.NewServeMux()
	so := newServerObs()
	graphs := newGraphRegistry(graphDir, maxGraphs, so)
	restoreErrs := graphs.restore()
	graphs.register(mux, maxEdges, reqTimeout)
	so.registerGraphMetrics(graphs)
	so.register(mux)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /api/methods", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, methods.Descriptors())
	})
	handle(mux, "POST /api/partition", reqTimeout, func(ctx context.Context, _ string, req *Request) (any, int, error) {
		return servePartition(ctx, req, maxEdges, so.tracer)
	})
	gate := newAdmission(adm)
	so.registerAdmissionMetrics(gate)
	// Every body handle reads is behind an http.MaxBytesReader; instrument
	// wraps the gate so shed 503s land in the request metrics too.
	limited := http.MaxBytesHandler(mux, maxBodyBytes(maxEdges))
	return so.instrument(gate.guard(limited)), graphs, so, restoreErrs
}

// partitionRun is one partitioner run on a request's graph.
type partitionRun struct {
	g      *graph.Graph
	method string // the method's display name
	res    *partition.Result
}

// runPartition is the half /api/partition and POST /api/graphs share:
// build the request's graph, resolve its method, partition under ctx, and
// record the run's phases on tr.
func runPartition(ctx context.Context, req *Request, maxEdges int64, tr *obs.Tracer) (*partitionRun, int, error) {
	if req.Parts <= 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("parts must be positive, got %d", req.Parts)
	}
	if req.Method == "" {
		req.Method = "dne"
	}
	g, err := buildGraph(req, maxEdges)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if g.NumEdges() == 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("graph has no edges")
	}
	if g.NumEdges() > maxEdges {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("graph has %d edges, server cap is %d", g.NumEdges(), maxEdges)
	}
	spec := partition.Spec{NumParts: req.Parts, Seed: req.Seed, Params: req.Params}
	pr, spec, err := methods.New(req.Method, spec)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	res, err := pr.Partition(ctx, g, spec)
	if err != nil {
		return nil, ctxStatus(err, http.StatusInternalServerError), fmt.Errorf("partitioning: %w", err)
	}
	recordPartitionPhases(tr, pr.Name(), req.Parts, res.Stats.Phases)
	return &partitionRun{g: g, method: pr.Name(), res: res}, http.StatusOK, nil
}

func servePartition(ctx context.Context, req *Request, maxEdges int64, tr *obs.Tracer) (*Response, int, error) {
	run, status, err := runPartition(ctx, req, maxEdges, tr)
	if err != nil {
		return nil, status, err
	}
	g, res := run.g, run.res
	pt := res.Partitioning
	if err := pt.Validate(g); err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("internal: invalid partitioning: %w", err)
	}
	st := res.Stats
	resp := &Response{
		Method:    run.method,
		Parts:     req.Parts,
		NumVerts:  g.NumVertices(),
		NumEdges:  g.NumEdges(),
		Owners:    pt.Owner,
		Quality:   qualityOf(res.Quality),
		ElapsedMS: millis(st.Wall),
		Stats: RunStats{
			Iterations:   st.Iterations,
			CommBytes:    st.CommBytes,
			CommMessages: st.CommMessages,
			PeakMemBytes: st.PeakMemBytes,
			MemScore:     st.MemScore(g.NumEdges()),
			HandOffEdges: st.SweptEdges,
			Extra:        st.Extra,
		},
	}
	for _, ph := range st.Phases {
		resp.Stats.Phases = append(resp.Stats.Phases,
			Phase{Name: ph.Name, ElapsedMS: millis(ph.Elapsed)})
	}
	if req.EchoEdges {
		resp.Edges = make([][2]uint32, g.NumEdges())
		for i, e := range g.Edges() {
			resp.Edges[i] = [2]uint32{e.U, e.V}
		}
	}
	return resp, http.StatusOK, nil
}

// qualityOf is the Quality block of a partitioning's measures.
func qualityOf(q partition.Quality) Quality {
	return Quality{
		ReplicationFactor: q.ReplicationFactor,
		EdgeBalance:       q.EdgeBalance,
		VertexBalance:     q.VertexBalance,
		VertexCuts:        q.VertexCuts,
	}
}

// buildGraph builds the request's graph. Explicit edges must back their
// largest id under the vertex claim rule every on-disk reader applies,
// before anything is sized by it and again once duplicates are gone, so a
// graph the server accepts also reopens from its directory.
func buildGraph(req *Request, maxEdges int64) (*graph.Graph, error) {
	switch {
	case len(req.Edges) > 0 && req.RMAT != nil:
		return nil, fmt.Errorf("supply either edges or rmat, not both")
	case len(req.Edges) > 0:
		if int64(len(req.Edges)) > maxEdges {
			return nil, fmt.Errorf("%d edges exceed server cap %d", len(req.Edges), maxEdges)
		}
		edges := make([]graph.Edge, len(req.Edges))
		var ids, nonLoops uint64
		for i, e := range req.Edges {
			edges[i] = graph.Edge{U: e[0], V: e[1]}
			if e[0] != e[1] {
				ids, nonLoops = max(ids, uint64(e[0])+1, uint64(e[1])+1), nonLoops+1
			}
		}
		if err := claimOK(ids, nonLoops); err != nil {
			return nil, err
		}
		g := graph.FromEdges(0, edges)
		if err := claimOK(uint64(g.NumVertices()), uint64(g.NumEdges())); err != nil {
			return nil, err
		}
		return g, nil
	case req.RMAT != nil:
		s := req.RMAT
		if s.Scale < 1 || s.Scale > 24 {
			return nil, fmt.Errorf("rmat scale %d outside [1,24]", s.Scale)
		}
		if s.EF < 1 || s.EF > 1024 {
			return nil, fmt.Errorf("rmat edge factor %d outside [1,1024]", s.EF)
		}
		if est := int64(1) << s.Scale * int64(s.EF); est > maxEdges {
			return nil, fmt.Errorf("rmat spec generates ~%d edges, server cap is %d", est, maxEdges)
		}
		return gen.RMAT(s.Scale, s.EF, s.Seed), nil
	}
	return nil, fmt.Errorf("supply edges or an rmat spec")
}

// claimOK is graph.VertexClaimOK for ids vertex ids over edges, as an error.
func claimOK(ids, edges uint64) error {
	if graph.VertexClaimOK(ids, edges) {
		return nil
	}
	return fmt.Errorf("vertex ids up to %d are not backed by %d edges: past 2^20 ids, a graph needs an edge per 256 ids", ids-1, edges)
}

// handle registers pattern as a JSON endpoint: the body decodes into a T,
// rejecting unknown fields (an empty body is the zero T); serve runs under
// the -timeout deadline with the pattern's {id}, and its answer is written
// with 200 or its error with the status serve chose. A body that does not
// decode answers 400, or 413 when it outgrew maxBodyBytes.
func handle[T any](mux *http.ServeMux, pattern string, reqTimeout time.Duration,
	serve func(ctx context.Context, id string, req *T) (any, int, error)) {
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		var req T
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		var resp any
		status, err := http.StatusBadRequest, dec.Decode(&req)
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			status, err = http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
		case err != nil && err != io.EOF:
			err = fmt.Errorf("bad request: %w", err)
		default:
			ctx := r.Context()
			if reqTimeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, reqTimeout)
				defer cancel()
			}
			resp, status, err = serve(ctx, r.PathValue("id"), &req)
		}
		if err != nil {
			writeJSON(w, status, errorBodyOf(err))
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
}

// Request bodies are capped by the -max-edges budget: a JSON edge
// [4294967295,4294967295] with its comma takes 24 bytes, jsonEdgeBytes
// leaves room for whitespace, and bodySlack covers the rest of a request
// (method, params, a neighbors batch).
const (
	jsonEdgeBytes = 32
	bodySlack     = 1 << 20
)

// maxBodyBytes is the request-body cap for a server accepting maxEdges
// edges per request.
func maxBodyBytes(maxEdges int64) int64 {
	if maxEdges > (math.MaxInt64-bodySlack)/jsonEdgeBytes {
		return math.MaxInt64
	}
	return max(maxEdges, 0)*jsonEdgeBytes + bodySlack
}

// errorBodyOf is the JSON body of a failed request; a parameter-validation
// failure carries the method's declared parameters.
func errorBodyOf(err error) errorBody {
	body := errorBody{Error: err.Error()}
	var perr *methods.ParamError
	if errors.As(err, &perr) {
		body.Method = perr.Method
		body.DeclaredParams = perr.Declared
	}
	return body
}

// ctxStatus is the status of work that failed with err: 504 when the
// request's -timeout expired, 408 when the client went away, and otherwise
// for any other failure.
func ctxStatus(err error, otherwise int) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout
	}
	return otherwise
}

// millis is d in fractional milliseconds, at microsecond resolution.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
