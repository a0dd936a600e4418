package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

func newHandler(maxEdges int64, reqTimeout time.Duration) http.Handler {
	h, _ := newHandlerWithStores(maxEdges, reqTimeout, defaultMaxStores, "")
	return h
}

// newHandlerWithStores is newHandler plus store-registry configuration; the
// live graph lives in an ephemeral temp directory.
func newHandlerWithStores(maxEdges int64, reqTimeout time.Duration, maxStores int, storeDir string) (http.Handler, []error) {
	h, _, _, errs := newHandlerWithLive(maxEdges, reqTimeout, maxStores, storeDir, "", admissionLimits{})
	return h, errs
}

// newHandlerWithLive is the full constructor: maxStores bounds resident
// stores, a non-empty storeDir persists store snapshots across restarts,
// and a non-empty liveDir roots the durable live graph (restore errors from
// either are returned, not fatal). The returned liveService must be closed
// on shutdown to seal the live logs; until then the on-disk tail is open
// for appending and a second process cannot adopt the directory. The
// returned serverObs owns the registry behind GET /metrics and the span
// ring behind GET /debug/trace; main points the debug listener and the
// access log at it. adm bounds heavy-request admission (zero = machine-sized
// defaults); overload beyond its queue is shed with 503 + Retry-After while
// reads and probes keep answering.
func newHandlerWithLive(maxEdges int64, reqTimeout time.Duration, maxStores int, storeDir, liveDir string, adm admissionLimits) (http.Handler, *liveService, *serverObs, []error) {
	mux := http.NewServeMux()
	so := newServerObs()
	registry := newStoreRegistry(maxStores, storeDir)
	registry.obs = so.storeObs
	registry.tracer = so.tracer
	restoreErrs := registry.restore()
	registry.register(mux, maxEdges, reqTimeout)
	so.registerStoreGauges(registry)
	lsvc := newLiveService(liveDir)
	lsvc.reg = so.reg
	lsvc.latNeighbors = so.liveNeighbors
	lsvc.latKHop = so.liveKHop
	restoreErrs = append(restoreErrs, lsvc.restore()...)
	lsvc.register(mux, maxEdges, reqTimeout)
	so.register(mux)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /api/methods", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, methods.Descriptors())
	})
	mux.HandleFunc("POST /api/partition", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request: " + err.Error()})
			return
		}
		ctx := r.Context()
		if reqTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, reqTimeout)
			defer cancel()
		}
		resp, status, err := servePartition(ctx, &req, maxEdges, so.tracer)
		if err != nil {
			body := errorBody{Error: err.Error()}
			var perr *methods.ParamError
			if errors.As(err, &perr) {
				body.Method = perr.Method
				body.DeclaredParams = perr.Declared
				if body.DeclaredParams == nil {
					body.DeclaredParams = []methods.ParamSpec{}
				}
			}
			writeJSON(w, status, body)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	gate := newAdmission(adm)
	so.registerAdmissionMetrics(gate)
	// instrument wraps the gate so shed 503s land in the request metrics too.
	return so.instrument(gate.guard(mux)), lsvc, so, restoreErrs
}

func servePartition(ctx context.Context, req *Request, maxEdges int64, tr *obs.Tracer) (*Response, int, error) {
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
		if errors.Is(err, context.DeadlineExceeded) {
			return nil, http.StatusGatewayTimeout, fmt.Errorf("partitioning timed out: %w", err)
		}
		if errors.Is(err, context.Canceled) {
			return nil, http.StatusRequestTimeout, fmt.Errorf("request cancelled: %w", err)
		}
		return nil, http.StatusInternalServerError, err
	}
	pt := res.Partitioning
	if err := pt.Validate(g); err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("internal: invalid partitioning: %w", err)
	}
	q := res.Quality
	st := res.Stats
	recordPartitionPhases(tr, pr.Name(), req.Parts, st.Phases)
	resp := &Response{
		Method:   pr.Name(),
		Parts:    req.Parts,
		NumVerts: g.NumVertices(),
		NumEdges: g.NumEdges(),
		Owners:   pt.Owner,
		Quality: Quality{
			ReplicationFactor: q.ReplicationFactor,
			EdgeBalance:       q.EdgeBalance,
			VertexBalance:     q.VertexBalance,
			VertexCuts:        q.VertexCuts,
		},
		ElapsedMS: float64(st.Wall.Microseconds()) / 1000,
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
			Phase{Name: ph.Name, ElapsedMS: float64(ph.Elapsed.Microseconds()) / 1000})
	}
	if req.EchoEdges {
		resp.Edges = make([][2]uint32, g.NumEdges())
		for i, e := range g.Edges() {
			resp.Edges[i] = [2]uint32{e.U, e.V}
		}
	}
	return resp, http.StatusOK, nil
}

func buildGraph(req *Request, maxEdges int64) (*graph.Graph, error) {
	switch {
	case len(req.Edges) > 0 && req.RMAT != nil:
		return nil, fmt.Errorf("supply either edges or rmat, not both")
	case len(req.Edges) > 0:
		if int64(len(req.Edges)) > maxEdges {
			return nil, fmt.Errorf("%d edges exceed server cap %d", len(req.Edges), maxEdges)
		}
		edges := make([]graph.Edge, len(req.Edges))
		for i, e := range req.Edges {
			edges[i] = graph.Edge{U: e[0], V: e[1]}
		}
		return graph.FromEdges(0, edges), nil
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
