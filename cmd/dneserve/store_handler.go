package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"github.com/distributedne/dne/internal/binio"
	"github.com/distributedne/dne/internal/obs"
	"github.com/distributedne/dne/internal/store"
)

// The store endpoints turn the partitioning service into an online serving
// layer: /api/store/build partitions a graph and materializes the result
// into a sharded store; /api/query/* serve point and traversal queries
// against it, reporting the cross-shard fan-out each query paid. With
// -store-dir set, every built store is persisted as <store-dir>/<name>/ —
// its shard files (store.WriteDir) and an info.json provenance sidecar —
// and restored on restart, so a server comes back without re-partitioning.

// defaultMaxStores bounds how many stores a server holds at once.
const defaultMaxStores = 16

// infoFile is the provenance sidecar in a persisted store's directory.
const infoFile = "info.json"

var storeNameRE = regexp.MustCompile(`^[a-zA-Z0-9_-]{1,64}$`)

// storeEntry is one resident store with its build provenance. An entry
// without a store reserves its name while the store is persisted.
type storeEntry struct {
	info StoreInfo
	st   *store.Store
}

// storeRegistry is the server's mutable state: the resident stores, keyed
// by id. Queries hold no lock while running — the registry lock only guards
// the map, and stores themselves are immutable.
type storeRegistry struct {
	mu        sync.Mutex
	stores    map[string]*storeEntry
	nextID    int
	maxStores int
	dir       string // "" disables persistence

	// writeStore is store.WriteDir; tests stall or fail it.
	writeStore func(dir string, st *store.Store) error

	// obs, when set, is attached to every built or restored store so their
	// query latencies and touch counters land on /metrics; tracer receives
	// the partition phases and build span of each /api/store/build.
	obs    *store.Obs
	tracer *obs.Tracer
}

func newStoreRegistry(maxStores int, dir string) *storeRegistry {
	if maxStores <= 0 {
		maxStores = defaultMaxStores
	}
	return &storeRegistry{stores: map[string]*storeEntry{}, maxStores: maxStores, dir: dir, writeStore: store.WriteDir}
}

// StoreBuildRequest is the /api/store/build body: the same graph sources and
// partitioner selection as /api/partition, plus an optional store name.
type StoreBuildRequest struct {
	Method string         `json:"method"`
	Parts  int            `json:"parts"`
	Seed   int64          `json:"seed,omitempty"`
	Params map[string]any `json:"params,omitempty"`
	Edges  [][2]uint32    `json:"edges,omitempty"`
	RMAT   *RMATSpec      `json:"rmat,omitempty"`
	// Name is the store id; a fresh "sN" is assigned when empty.
	Name string `json:"name,omitempty"`
}

// ShardInfo summarizes one shard of a store.
type ShardInfo struct {
	Edges    int64 `json:"edges"`
	Vertices int   `json:"vertices"`
}

// StoreInfo describes a resident store.
type StoreInfo struct {
	Store             string      `json:"store"`
	Method            string      `json:"method"`
	Parts             int         `json:"parts"`
	NumVertices       uint32      `json:"numVertices"`
	NumEdges          int64       `json:"numEdges"`
	ReplicationFactor float64     `json:"replicationFactor"`
	Quality           *Quality    `json:"quality,omitempty"`
	Shards            []ShardInfo `json:"shards"`
	PartitionMS       float64     `json:"partitionMs,omitempty"`
	BuildMS           float64     `json:"buildMs,omitempty"`
	// Restored is set when the store was loaded from -store-dir instead of
	// built this run.
	Restored bool `json:"restored,omitempty"`
}

// StoreStatus is StoreInfo plus the live serving counters.
type StoreStatus struct {
	StoreInfo
	Metrics store.Metrics `json:"metrics"`
}

// NeighborsRequest queries one vertex or a batch.
type NeighborsRequest struct {
	Store    string   `json:"store"`
	Vertex   *uint32  `json:"vertex,omitempty"`
	Vertices []uint32 `json:"vertices,omitempty"`
}

// NeighborsResponse reports the batch plus the cross-shard cost it paid.
type NeighborsResponse struct {
	Store          string            `json:"store"`
	Results        []VertexNeighbors `json:"results"`
	CrossShardHops int64             `json:"crossShardHops"`
	ElapsedMS      float64           `json:"elapsedMs"`
}

// KHopRequest asks for the k-hop neighborhood of a vertex.
type KHopRequest struct {
	Store  string `json:"store"`
	Vertex uint32 `json:"vertex"`
	K      int    `json:"k"`
}

// KHopResponse reports the traversal and its serving cost.
type KHopResponse struct {
	Store string `json:"store"`
	KHopAnswer
}

// register wires the store/query endpoints onto mux.
func (sr *storeRegistry) register(mux *http.ServeMux, maxEdges int64, reqTimeout time.Duration) {
	handle(mux, "POST /api/store/build", reqTimeout, func(ctx context.Context, req *StoreBuildRequest) (any, int, error) {
		return sr.buildStore(ctx, req, maxEdges)
	})
	mux.HandleFunc("GET /api/store", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, sr.list())
	})
	mux.HandleFunc("DELETE /api/store/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !sr.drop(id) {
			writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no store %q", id)})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	handle(mux, "POST /api/query/neighbors", reqTimeout, func(ctx context.Context, req *NeighborsRequest) (any, int, error) {
		st, status, err := sr.lookup(req.Store)
		if err != nil {
			return nil, status, err
		}
		ans, status, err := answerNeighbors(ctx, st, req.Vertex, req.Vertices)
		if err != nil {
			return nil, status, err
		}
		return &NeighborsResponse{Store: req.Store, Results: ans.results,
			CrossShardHops: ans.hops, ElapsedMS: millis(ans.elapsed)}, http.StatusOK, nil
	})
	handle(mux, "POST /api/query/khop", reqTimeout, func(ctx context.Context, req *KHopRequest) (any, int, error) {
		st, status, err := sr.lookup(req.Store)
		if err != nil {
			return nil, status, err
		}
		ans, status, err := answerKHop(ctx, st, req.Vertex, req.K)
		if err != nil {
			return nil, status, err
		}
		return &KHopResponse{Store: req.Store, KHopAnswer: *ans}, http.StatusOK, nil
	})
}

func (sr *storeRegistry) buildStore(ctx context.Context, req *StoreBuildRequest, maxEdges int64) (*StoreInfo, int, error) {
	if req.Name != "" && !storeNameRE.MatchString(req.Name) {
		return nil, http.StatusBadRequest, fmt.Errorf("store name %q must match %s", req.Name, storeNameRE)
	}
	run, status, err := runPartition(ctx, &Request{Method: req.Method, Parts: req.Parts, Seed: req.Seed,
		Params: req.Params, Edges: req.Edges, RMAT: req.RMAT}, maxEdges, sr.tracer)
	if err != nil {
		return nil, status, err
	}
	buildStart := time.Now()
	st, err := store.BuildPartitioning(run.g, run.res.Partitioning)
	if err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("materializing store: %w", err)
	}
	st.SetObs(sr.obs)
	sr.tracer.Record(obs.Span{
		Name:  "build",
		Cat:   "store",
		Start: buildStart.UnixNano(),
		Dur:   int64(time.Since(buildStart)),
		Attrs: map[string]string{"method": run.method, "parts": fmt.Sprint(req.Parts)},
	})
	q := run.res.Quality
	info := StoreInfo{
		Method:            run.method,
		Parts:             req.Parts,
		NumVertices:       st.NumVertices(),
		NumEdges:          st.NumEdges(),
		ReplicationFactor: st.ReplicationFactor(),
		Quality: &Quality{
			ReplicationFactor: q.ReplicationFactor,
			EdgeBalance:       q.EdgeBalance,
			VertexBalance:     q.VertexBalance,
			VertexCuts:        q.VertexCuts,
		},
		Shards:      shardInfos(st),
		PartitionMS: millis(run.res.Stats.Wall),
		BuildMS:     millis(time.Since(buildStart)),
	}
	added, err := sr.add(req.Name, info, st)
	if err != nil {
		return nil, http.StatusConflict, err
	}
	return added, http.StatusOK, nil
}

func shardInfos(st *store.Store) []ShardInfo {
	out := make([]ShardInfo, st.NumShards())
	for s := range out {
		out[s] = ShardInfo{Edges: st.ShardEdges(s), Vertices: st.ShardVertices(s)}
	}
	return out
}

// add registers a built store under name (or a fresh id) and persists it.
// The name is reserved under the lock and the store written outside it, so
// a slow disk holds up no query or listing; a failed write releases it.
func (sr *storeRegistry) add(name string, info StoreInfo, st *store.Store) (*StoreInfo, error) {
	sr.mu.Lock()
	if len(sr.stores) >= sr.maxStores {
		sr.mu.Unlock()
		return nil, fmt.Errorf("server already holds %d stores; DELETE /api/store/{id} first", len(sr.stores))
	}
	if name == "" {
		for {
			sr.nextID++
			name = fmt.Sprintf("s%d", sr.nextID)
			if _, taken := sr.stores[name]; !taken {
				break
			}
		}
	} else if _, taken := sr.stores[name]; taken {
		sr.mu.Unlock()
		return nil, fmt.Errorf("store %q already exists", name)
	}
	sr.stores[name] = &storeEntry{}
	sr.mu.Unlock()

	info.Store = name
	var err error
	if sr.dir != "" {
		err = sr.persist(name, info, st)
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if err != nil {
		delete(sr.stores, name)
		return nil, fmt.Errorf("persisting store: %w", err)
	}
	sr.stores[name] = &storeEntry{info: info, st: st}
	return &info, nil
}

// lookup returns the resident store id, or a 404 when there is none.
func (sr *storeRegistry) lookup(id string) (*store.Store, int, error) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	e, ok := sr.stores[id]
	if !ok || e.st == nil {
		return nil, http.StatusNotFound, fmt.Errorf("no store %q (POST /api/store/build first)", id)
	}
	return e.st, http.StatusOK, nil
}

func (sr *storeRegistry) list() []StoreStatus {
	sr.mu.Lock()
	entries := make([]*storeEntry, 0, len(sr.stores))
	for _, e := range sr.stores {
		if e.st != nil {
			entries = append(entries, e)
		}
	}
	sr.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].info.Store < entries[j].info.Store })
	out := make([]StoreStatus, len(entries))
	for i, e := range entries {
		out[i] = StoreStatus{StoreInfo: e.info, Metrics: e.st.Metrics()}
	}
	return out
}

func (sr *storeRegistry) drop(id string) bool {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if e, ok := sr.stores[id]; !ok || e.st == nil {
		return false
	}
	delete(sr.stores, id)
	if sr.dir != "" {
		os.RemoveAll(filepath.Join(sr.dir, id))
	}
	return true
}

// persist writes st and its sidecar into a temporary directory under
// sr.dir (a dot name, which no store has), and renames it over <name>/.
// Every file is written durably (store.WriteDir, binio.Replace), so the
// rename publishes complete contents. A failed write leaves nothing a
// restart would load, and a crash leaves the temporary directory for
// restore to delete.
func (sr *storeRegistry) persist(name string, info StoreInfo, st *store.Store) error {
	if err := os.MkdirAll(sr.dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(sr.dir, "."+name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp) // a no-op once renamed
	meta, err := json.Marshal(info)
	if err == nil {
		_, err = binio.Replace(filepath.Join(tmp, infoFile), func(w io.Writer) error {
			_, err := w.Write(meta)
			return err
		})
	}
	if err == nil {
		err = sr.writeStore(tmp, st)
	}
	if err == nil {
		err = os.RemoveAll(filepath.Join(sr.dir, name)) // a store restore left unloaded
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(sr.dir, name))
	}
	return err
}

// persistTempRE matches the temporary directory persist writes a store
// into: a dot, the store's name, a dash and MkdirTemp's digits.
var persistTempRE = regexp.MustCompile(`^\.[a-zA-Z0-9_-]{1,64}-[0-9]+$`)

// restore loads every store directory under dir; corrupt ones are skipped
// with an error list so one bad store doesn't take the server down. The
// temporary directories of persists a crash cut short are deleted.
func (sr *storeRegistry) restore() []error {
	if sr.dir == "" {
		return nil
	}
	entries, err := os.ReadDir(sr.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return []error{err}
	}
	var errs []error
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() && persistTempRE.MatchString(name) {
			// A persist the server crashed in: never published.
			if err := os.RemoveAll(filepath.Join(sr.dir, name)); err != nil {
				errs = append(errs, err)
			}
			continue
		}
		if !de.IsDir() || !storeNameRE.MatchString(name) {
			continue
		}
		st, err := store.ReadDir(filepath.Join(sr.dir, name))
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
			continue
		}
		st.SetObs(sr.obs)
		info := StoreInfo{
			Store:             name,
			Method:            "unknown",
			Parts:             st.NumShards(),
			NumVertices:       st.NumVertices(),
			NumEdges:          st.NumEdges(),
			ReplicationFactor: st.ReplicationFactor(),
			Shards:            shardInfos(st),
			Restored:          true,
		}
		if meta, err := os.ReadFile(filepath.Join(sr.dir, name, infoFile)); err == nil {
			var saved StoreInfo
			if json.Unmarshal(meta, &saved) == nil && saved.Method != "" {
				info.Method = saved.Method
				info.Quality = saved.Quality
			}
		}
		sr.mu.Lock()
		if len(sr.stores) < sr.maxStores {
			sr.stores[name] = &storeEntry{info: info, st: st}
			sr.mu.Unlock()
		} else {
			sr.mu.Unlock()
			errs = append(errs, fmt.Errorf("%s: not restored, server already holds %d stores (-max-stores)",
				name, sr.maxStores))
		}
	}
	return errs
}
