package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"github.com/distributedne/dne/internal/binio"
	"github.com/distributedne/dne/internal/dynpart"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/live"
	"github.com/distributedne/dne/internal/obs"
	"github.com/distributedne/dne/internal/partition"
	"github.com/distributedne/dne/internal/store"
)

// The graph endpoints serve named partitioned graphs, each a live.Live in
// <root>/<name>/ beside an info.json provenance sidecar. POST /api/graphs
// partitions a graph and seeds a live graph from the result (live.Create),
// the §8 workflow; an ingest batch places each new edge incrementally, and
// creates an empty graph on its first batch. Queries pin the epoch the
// last batch published, so a traversal never observes a partial batch.

// defaultMaxGraphs bounds how many graphs a server holds at once.
const defaultMaxGraphs = 16

// infoFile is the provenance sidecar in a graph's directory.
const infoFile = "info.json"

var graphNameRE = regexp.MustCompile(`^[a-zA-Z0-9_-]{1,64}$`)

// Provenance is how a graph was seeded: the partitioner and the quality of
// its partitioning. It is what the info.json sidecar holds.
type Provenance struct {
	Method  string   `json:"method"`
	Quality *Quality `json:"quality,omitempty"`
}

// GraphInfo describes a served graph: its provenance and, as of the
// request, its shape and serving counters.
type GraphInfo struct {
	Graph string `json:"graph"`
	Provenance
	PartitionMS float64       `json:"partitionMs,omitempty"`
	BuildMS     float64       `json:"buildMs,omitempty"`
	Restored    bool          `json:"restored,omitempty"` // restored at startup, not created this run
	NumVertices uint32        `json:"numVertices"`        // the vertex id range queries may name
	Stats       live.Stats    `json:"stats"`
	Metrics     store.Metrics `json:"metrics"`
	Checksum    string        `json:"checksum,omitempty"` // of every live edge and its owner (stats?checksum=1)
}

// graphEntry is one served graph and the fixed part of its GraphInfo. An
// entry without a graph reserves its name while the graph is created.
type graphEntry struct {
	info GraphInfo
	lv   *live.Live
}

// graphRegistry is the server's mutable state: the served graphs, keyed by
// name. Queries hold no lock while running — the registry lock only guards
// the map, and every query runs on an immutable epoch.
type graphRegistry struct {
	mu        sync.Mutex
	graphs    map[string]*graphEntry
	nextID    int
	maxGraphs int
	root      string
	so        *serverObs // every graph's instruments

	// create is live.Create; tests stall or fail it.
	create func(dir string, cfg live.Config, g *graph.Graph, p *partition.Partitioning) (*live.Live, error)
}

func newGraphRegistry(root string, maxGraphs int, so *serverObs) *graphRegistry {
	if maxGraphs <= 0 {
		maxGraphs = defaultMaxGraphs
	}
	return &graphRegistry{graphs: map[string]*graphEntry{}, maxGraphs: maxGraphs, root: root, so: so, create: live.Create}
}

// BuildRequest is the POST /api/graphs body: the same graph sources and
// partitioner selection as /api/partition, plus an optional graph name.
type BuildRequest struct {
	Method string         `json:"method"`
	Parts  int            `json:"parts"`
	Seed   int64          `json:"seed,omitempty"`
	Params map[string]any `json:"params,omitempty"`
	Edges  [][2]uint32    `json:"edges,omitempty"`
	RMAT   *RMATSpec      `json:"rmat,omitempty"`
	// Name is the graph id; a fresh "sN" is assigned when empty.
	Name string `json:"name,omitempty"`
}

// IngestRequest is one ingest batch. Edges are inserted, then Deletes
// removed, in order. Parts and Seed configure a graph the batch creates
// and must agree (or be zero) afterwards.
type IngestRequest struct {
	Parts   int         `json:"parts,omitempty"`
	Seed    int64       `json:"seed,omitempty"`
	Edges   [][2]uint32 `json:"edges,omitempty"`
	Deletes [][2]uint32 `json:"deletes,omitempty"`
}

// IngestResponse reports what one batch changed.
type IngestResponse struct {
	Applied   int        `json:"applied"`
	ElapsedMS float64    `json:"elapsedMs"`
	Stats     live.Stats `json:"stats"`
}

// CompactRequest tunes a compaction: a positive RebalanceBudget migrates
// up to that many edges off overloaded partitions first.
type CompactRequest struct {
	RebalanceBudget int `json:"rebalanceBudget,omitempty"`
}

// CompactResponse reports the maintenance pass.
type CompactResponse struct {
	Moved     int        `json:"moved"`
	ElapsedMS float64    `json:"elapsedMs"`
	Stats     live.Stats `json:"stats"`
}

// NeighborsRequest queries one vertex or a batch.
type NeighborsRequest struct {
	Vertex   *uint32  `json:"vertex,omitempty"`
	Vertices []uint32 `json:"vertices,omitempty"`
}

// NeighborsResponse reports the batch, the epoch that answered it and the
// cross-shard cost it paid: the replica fetches beyond each vertex's first.
type NeighborsResponse struct {
	Graph          string            `json:"graph"`
	Epoch          uint64            `json:"epoch"`
	Results        []VertexNeighbors `json:"results"`
	CrossShardHops int64             `json:"crossShardHops"`
	ElapsedMS      float64           `json:"elapsedMs"`
}

// VertexNeighbors is one vertex's answer.
type VertexNeighbors struct {
	Vertex    uint32   `json:"vertex"`
	Degree    int64    `json:"degree"`
	Neighbors []uint32 `json:"neighbors"`
}

// KHopRequest asks for the k-hop neighborhood of a vertex.
type KHopRequest struct {
	Vertex uint32 `json:"vertex"`
	K      int    `json:"k"`
}

// KHopResponse reports the traversal, the epoch that answered it and its
// serving cost.
type KHopResponse struct {
	Graph          string   `json:"graph"`
	Epoch          uint64   `json:"epoch"`
	Source         uint32   `json:"source"`
	K              int      `json:"k"`
	Visited        int      `json:"visited"`
	Vertices       []uint32 `json:"vertices"`
	Depths         []int32  `json:"depths"`
	LevelSizes     []int64  `json:"levelSizes"`
	CrossShardHops int64    `json:"crossShardHops"`
	ShardTasks     int64    `json:"shardTasks"`
	ElapsedMS      float64  `json:"elapsedMs"`
}

// Query bounds: the traversal depth of a k-hop query, and the vertices of
// one neighbors batch.
const (
	maxKHop           = 32
	maxNeighborsBatch = 1024
)

// register wires the graph endpoints onto mux.
func (gr *graphRegistry) register(mux *http.ServeMux, maxEdges int64, reqTimeout time.Duration) {
	handle(mux, "POST /api/graphs", reqTimeout, func(ctx context.Context, _ string, req *BuildRequest) (any, int, error) {
		return gr.build(ctx, req, maxEdges)
	})
	mux.HandleFunc("GET /api/graphs", func(w http.ResponseWriter, r *http.Request) {
		list := []GraphInfo{}
		for _, e := range gr.served() {
			list = append(list, e.status())
		}
		writeJSON(w, http.StatusOK, list)
	})
	mux.HandleFunc("DELETE /api/graphs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if id := r.PathValue("id"); !gr.drop(id) {
			writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no graph %q", id)})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /api/graphs/{id}/stats", func(w http.ResponseWriter, r *http.Request) {
		e, status, err := gr.lookup(r.PathValue("id"))
		if err != nil {
			writeJSON(w, status, errorBody{Error: err.Error()})
			return
		}
		info := e.status()
		if r.URL.Query().Get("checksum") == "1" {
			info.Checksum = fmt.Sprintf("%#x", e.lv.Checksum())
		}
		writeJSON(w, http.StatusOK, info)
	})
	handle(mux, "POST /api/graphs/{id}/ingest", reqTimeout, func(_ context.Context, id string, req *IngestRequest) (any, int, error) {
		if n := int64(len(req.Edges) + len(req.Deletes)); n > maxEdges {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("batch has %d events, server cap is %d", n, maxEdges)
		}
		lv, status, err := gr.ingestTarget(id, req.Parts, req.Seed)
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
		return &IngestResponse{Applied: applied, ElapsedMS: millis(time.Since(start)), Stats: lv.Stats()},
			http.StatusOK, nil
	})
	onGraph(mux, "POST /api/graphs/{id}/compact", reqTimeout, gr, func(_ context.Context, e *graphEntry, req *CompactRequest) (any, int, error) {
		start := time.Now()
		var moved int
		var err error
		if req.RebalanceBudget > 0 {
			moved, err = e.lv.Rebalance(req.RebalanceBudget)
		}
		if err == nil {
			err = e.lv.Compact()
		}
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		return &CompactResponse{Moved: moved, ElapsedMS: millis(time.Since(start)), Stats: e.lv.Stats()},
			http.StatusOK, nil
	})
	// Each query pins one epoch: every answer of a batch is consistent with
	// the same snapshot even while ingestion continues.
	onGraph(mux, "POST /api/graphs/{id}/neighbors", reqTimeout, gr, neighbors)
	onGraph(mux, "POST /api/graphs/{id}/khop", reqTimeout, gr, khop)
}

// onGraph registers pattern as a JSON endpoint (see handle) of the served
// graph {id}; an id no graph is served under answers 404.
func onGraph[T any](mux *http.ServeMux, pattern string, reqTimeout time.Duration, gr *graphRegistry,
	serve func(ctx context.Context, e *graphEntry, req *T) (any, int, error)) {
	handle(mux, pattern, reqTimeout, func(ctx context.Context, id string, req *T) (any, int, error) {
		e, status, err := gr.lookup(id)
		if err != nil {
			return nil, status, err
		}
		return serve(ctx, e, req)
	})
}

// neighbors answers req on e's current epoch, checking ctx between
// vertices.
func neighbors(ctx context.Context, e *graphEntry, req *NeighborsRequest) (any, int, error) {
	ep, vs := e.lv.Epoch(), req.Vertices
	switch {
	case req.Vertex != nil && len(vs) > 0:
		return nil, http.StatusBadRequest, fmt.Errorf("supply vertex or vertices, not both")
	case req.Vertex != nil:
		vs = []uint32{*req.Vertex}
	case len(vs) > maxNeighborsBatch:
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("%d vertices exceed batch cap %d", len(vs), maxNeighborsBatch)
	case len(vs) == 0:
		return nil, http.StatusBadRequest, fmt.Errorf("supply vertex or vertices")
	}
	start := time.Now()
	resp := &NeighborsResponse{Graph: e.info.Graph, Epoch: ep.Seq(), Results: make([]VertexNeighbors, 0, len(vs))}
	for _, v := range vs {
		if err := ctx.Err(); err != nil {
			return nil, ctxStatus(err, http.StatusInternalServerError), err
		}
		ns, err := ep.Neighbors(v)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		if ns == nil {
			ns = []graph.Vertex{} // an isolated vertex answers [], not null
		}
		resp.CrossShardHops += int64(max(len(ep.Replicas(v))-1, 0))
		resp.Results = append(resp.Results, VertexNeighbors{Vertex: v, Degree: int64(len(ns)), Neighbors: ns})
	}
	resp.ElapsedMS = millis(time.Since(start))
	return resp, http.StatusOK, nil
}

// khop answers req on e's current epoch under ctx.
func khop(ctx context.Context, e *graphEntry, req *KHopRequest) (any, int, error) {
	ep := e.lv.Epoch()
	if req.K < 0 || req.K > maxKHop {
		return nil, http.StatusBadRequest, fmt.Errorf("k %d outside [0,%d]", req.K, maxKHop)
	}
	start := time.Now()
	res, err := ep.KHop(ctx, req.Vertex, req.K)
	if err != nil {
		return nil, ctxStatus(err, http.StatusBadRequest), err
	}
	return &KHopResponse{
		Graph:          e.info.Graph,
		Epoch:          ep.Seq(),
		Source:         req.Vertex,
		K:              req.K,
		Visited:        len(res.Vertices),
		Vertices:       res.Vertices,
		Depths:         res.Depths,
		LevelSizes:     res.LevelSizes,
		CrossShardHops: res.CrossShardHops,
		ShardTasks:     res.ShardTasks,
		ElapsedMS:      millis(time.Since(start)),
	}, http.StatusOK, nil
}

// build partitions req's graph and serves a graph seeded from the
// partitioning.
func (gr *graphRegistry) build(ctx context.Context, req *BuildRequest, maxEdges int64) (*GraphInfo, int, error) {
	if req.Name != "" && !graphNameRE.MatchString(req.Name) {
		return nil, http.StatusBadRequest, fmt.Errorf("graph name %q must match %s", req.Name, graphNameRE)
	}
	run, status, err := runPartition(ctx, &Request{Method: req.Method, Parts: req.Parts, Seed: req.Seed,
		Params: req.Params, Edges: req.Edges, RMAT: req.RMAT}, maxEdges, gr.so.tracer)
	if err != nil {
		return nil, status, err
	}
	start := time.Now()
	q := qualityOf(run.res.Quality)
	info := GraphInfo{Provenance: Provenance{Method: run.method, Quality: &q}, PartitionMS: millis(run.res.Stats.Wall)}
	e, status, err := gr.add(req.Name, info, http.StatusInternalServerError, func(dir string) (*live.Live, error) {
		lv, err := gr.create(dir, live.Config{}, run.g, run.res.Partitioning)
		if err == nil {
			if err = writeProvenance(dir, info.Provenance); err != nil {
				lv.Close()
			}
		}
		return lv, err
	})
	if err != nil {
		return nil, status, err
	}
	gr.so.tracer.Record(obs.Span{Name: "build", Cat: "store", Start: start.UnixNano(), Dur: int64(time.Since(start)),
		Attrs: map[string]string{"method": run.method, "parts": fmt.Sprint(req.Parts)}})
	out := e.status()
	return &out, http.StatusOK, nil
}

// writeProvenance writes p as dir's sidecar, durably.
func writeProvenance(dir string, p Provenance) error {
	_, err := binio.Replace(filepath.Join(dir, infoFile), func(w io.Writer) error { return json.NewEncoder(w).Encode(p) })
	return err
}

// ingestTarget returns graph id for an ingest batch, creating it empty with
// parts partitions when it does not exist. A batch naming parts must agree
// with an existing graph's count, so a client cannot silently ingest into
// a different partitioning than it asked for.
func (gr *graphRegistry) ingestTarget(id string, parts int, seed int64) (*live.Live, int, error) {
	e, _, err := gr.lookup(id)
	switch {
	case err == nil:
		if n := e.lv.Epoch().NumShards(); parts != 0 && parts != n {
			return nil, http.StatusConflict, fmt.Errorf("graph %q has %d partitions, request asks %d", id, n, parts)
		}
		return e.lv, http.StatusOK, nil
	case parts <= 0:
		return nil, http.StatusBadRequest, fmt.Errorf("no graph %q yet; the ingest that creates it must set parts > 0", id)
	case !graphNameRE.MatchString(id):
		return nil, http.StatusBadRequest, fmt.Errorf("graph name %q must match %s", id, graphNameRE)
	}
	// Open refuses a partition count out of range: the client's error.
	e, status, err := gr.add(id, GraphInfo{Provenance: Provenance{Method: "unknown"}}, http.StatusBadRequest, func(dir string) (*live.Live, error) {
		return live.Open(dir, live.Config{NumParts: parts, Seed: seed})
	})
	if err != nil {
		return nil, status, err
	}
	return e.lv, http.StatusOK, nil
}

// add serves a new graph under name, a fresh "sN" when empty, unless the
// name is taken or the server is full (409). The name is reserved under
// the lock and the graph opened in its directory outside it, so a slow
// disk holds up no query or listing. A directory a restore could not serve
// gives way to the new graph, and the time open takes is its BuildMS; a
// failed open answers openFailed, removes the directory and frees the name.
func (gr *graphRegistry) add(name string, info GraphInfo, openFailed int, open func(dir string) (*live.Live, error)) (*graphEntry, int, error) {
	gr.mu.Lock()
	if len(gr.graphs) >= gr.maxGraphs {
		gr.mu.Unlock()
		return nil, http.StatusConflict, fmt.Errorf("server already holds %d graphs; DELETE /api/graphs/{id} first", gr.maxGraphs)
	}
	for name == "" {
		gr.nextID++
		if n := fmt.Sprintf("s%d", gr.nextID); gr.graphs[n] == nil {
			name = n
		}
	}
	if gr.graphs[name] != nil {
		gr.mu.Unlock()
		return nil, http.StatusConflict, fmt.Errorf("graph %q already exists", name)
	}
	gr.graphs[name] = &graphEntry{}
	gr.mu.Unlock()

	dir, start := filepath.Join(gr.root, name), time.Now()
	err := os.RemoveAll(dir)
	var lv *live.Live
	if err == nil {
		lv, err = open(dir)
	}
	if err != nil {
		os.RemoveAll(dir)
		gr.mu.Lock()
		delete(gr.graphs, name)
		gr.mu.Unlock()
		return nil, openFailed, fmt.Errorf("creating graph %q: %w", name, err)
	}
	info.Graph, info.BuildMS = name, millis(time.Since(start))
	return gr.publish(info, lv), http.StatusOK, nil
}

// publish instruments lv and serves it under info.Graph.
func (gr *graphRegistry) publish(info GraphInfo, lv *live.Live) *graphEntry {
	lv.Instrument(info.Graph, gr.so.reg, gr.so.storeObs)
	e := &graphEntry{info: info, lv: lv}
	gr.mu.Lock()
	defer gr.mu.Unlock()
	gr.graphs[info.Graph] = e
	return e
}

// lookup returns the served graph id, or a 404 when there is none.
func (gr *graphRegistry) lookup(id string) (*graphEntry, int, error) {
	gr.mu.Lock()
	defer gr.mu.Unlock()
	e, ok := gr.graphs[id]
	if !ok || e.lv == nil {
		return nil, http.StatusNotFound, fmt.Errorf("no graph %q (POST /api/graphs first)", id)
	}
	return e, http.StatusOK, nil
}

// status is e's GraphInfo as of now.
func (e *graphEntry) status() GraphInfo {
	info := e.info
	ep := e.lv.Epoch()
	info.NumVertices, info.Stats, info.Metrics = ep.NumVertices(), e.lv.Stats(), ep.Metrics()
	return info
}

// served returns the served graphs, by name.
func (gr *graphRegistry) served() []*graphEntry {
	gr.mu.Lock()
	out := make([]*graphEntry, 0, len(gr.graphs))
	for _, e := range gr.graphs {
		if e.lv != nil {
			out = append(out, e)
		}
	}
	gr.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].info.Graph < out[j].info.Graph })
	return out
}

// drop stops serving graph id and deletes its directory, reporting whether
// it was served. Queries that pinned one of its epochs finish on it.
func (gr *graphRegistry) drop(id string) bool {
	gr.mu.Lock()
	e, ok := gr.graphs[id]
	ok = ok && e.lv != nil
	if ok {
		delete(gr.graphs, id)
	}
	gr.mu.Unlock()
	if ok {
		e.lv.Close()
		os.RemoveAll(filepath.Join(gr.root, id))
	}
	return ok
}

// restore serves every graph directory under the root; it runs before the
// server serves, so it takes no lock to count the graphs. A directory
// without base 0 is a create a crash cut short (live.Create and an empty
// live.Open write base 0 last), and is deleted. A graph that fails to open
// is skipped with an error, so one bad graph doesn't take the server down.
func (gr *graphRegistry) restore() []error {
	entries, err := os.ReadDir(gr.root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return []error{err}
	}
	var errs []error
	for _, de := range entries {
		name := de.Name()
		if !de.IsDir() || !graphNameRE.MatchString(name) {
			continue
		}
		dir := filepath.Join(gr.root, name)
		if base0, _ := filepath.Glob(filepath.Join(dir, "shard-0000-of-*.esz")); len(base0) == 0 {
			if err := os.RemoveAll(dir); err != nil {
				errs = append(errs, err)
			}
			continue
		}
		if len(gr.graphs) >= gr.maxGraphs {
			errs = append(errs, fmt.Errorf("%s: not restored, server already holds %d graphs (-max-graphs)", name, gr.maxGraphs))
			continue
		}
		lv, err := live.Open(dir, live.Config{})
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
			continue
		}
		if rec := lv.Recovery(); rec.Recovered() {
			log.Printf("dneserve: crash recovery in %s: %s", dir, rec)
		}
		info := GraphInfo{Graph: name, Provenance: Provenance{Method: "unknown"}, Restored: true}
		if meta, err := os.ReadFile(filepath.Join(dir, infoFile)); err == nil {
			var saved Provenance
			if json.Unmarshal(meta, &saved) == nil && saved.Method != "" {
				info.Provenance = saved
			}
		}
		gr.publish(info, lv)
	}
	return errs
}

// close seals every graph's tails, so a restart on the same root resumes
// exactly.
func (gr *graphRegistry) close() error {
	var errs []error
	for _, e := range gr.served() {
		errs = append(errs, e.lv.Close())
	}
	return errors.Join(errs...)
}
