package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/dynpart"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/live"
	"github.com/distributedne/dne/internal/store"
)

// serveClients is the number of closed-loop callers of both serving
// workloads: one per core of the reference box.
const serveClients = 2

// newClients gives each client room for perClient queries, so that keeping a
// latency does not allocate inside the timed region.
func newClients(n, perClient int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{
			neighborsUS: make([]float64, 0, perClient),
			khopUS:      make([]float64, 0, perClient),
			answers:     make([]answer, 0, checkedPerOp),
		}
	}
	return cs
}

// serveRead is workload serve-read: read-only use of the store. Set-up
// partitions the graph with DNE into 8 parts and builds the store; a rep has
// 2 closed-loop clients issue a fixed seeded sequence of queries.
type serveRead struct {
	seed  int64
	scale int

	g       *graph.Graph
	st      *store.Store
	quality quality
	build   time.Duration
	queries []query
}

const (
	serveParts   = 8
	serveQueries = 40000 // per rep: 12 000 of them KHop, so p99 has 120 samples beyond it
)

func (w *serveRead) setup(ctx context.Context, _ string, seed int64) error {
	w.seed = seed
	w.g = rmat(w.scale, w.seed)
	res, err := dne.PartitionCtx(ctx, w.g, serveParts, dneConfig(w.seed))
	if err != nil {
		return err
	}
	want := packedEdges(w.g)
	if w.quality, err = checkPartition(w.g.NumVertices(), want, want, res.Partitioning.Owner, serveParts); err != nil {
		return err
	}
	t0 := time.Now()
	w.st, err = store.BuildPartitioning(w.g, res.Partitioning)
	w.build = time.Since(t0)
	w.queries = queryMix(serveQueries, w.seed)
	return err
}

func (w *serveRead) input() inputSizes {
	return inputSizes{Scale: w.scale, Vertices: int64(w.g.NumVertices()), Edges: w.g.NumEdges(), Queries: len(w.queries)}
}

func (w *serveRead) rep(ctx context.Context, _ string, tr *tracer) (*repResult, error) {
	per := len(w.queries) / serveClients
	clients := newClients(serveClients, per)
	keepEvery := max(1, len(w.queries)/checkedPerOp)
	w.st.ResetMetrics()
	var wall time.Duration
	r, err := timed(func() error {
		t0 := time.Now()
		err := runAll(serveClients, func(i int) error {
			tk := tr.track(fmt.Sprintf("client %d", i))
			defer tk.begin("store.queries").end()
			for _, q := range w.queries[i*per : (i+1)*per] {
				clients[i].issue(ctx, w.st, q, w.g.NumVertices(), keepEvery)
			}
			return nil
		})
		wall = time.Since(t0)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, c := range clients {
		c.check(w.g, r)
	}
	latencyVals(r, clients, wall)

	m := w.st.Metrics()
	queries := float64(m.Queries())
	touches := make([]float64, len(m.PerShardTouches))
	for i, t := range m.PerShardTouches {
		touches[i] = float64(t)
	}
	touchMax, touchMean := maxMean(touches)
	v := r.vals
	v["work_per_s"] = v["queries_per_s"]
	v["rf"], v["edge_balance"] = w.quality.rf, w.quality.edgeBalance
	v["store.build_s"] = seconds(w.build)
	v["store.hops_per_query"] = m.HopsPerQuery()
	v["store.shard_tasks_per_query"] = float64(m.ShardTasks) / queries
	v["store.touch_imbalance"] = touchMax / touchMean
	return r, nil
}

// liveMixed is workload live-mixed: writes beside reads. A rep opens an
// empty live graph; 1 writer applies a seeded churn stream in batches, with
// the subsystem compacting when it chooses to, while 1 reader runs the query
// mix against whatever epoch is current, until the writer finishes. The rep's
// wall time is the writer's and its work rate the reader's, so that a change
// which slows either side for the other's sake moves a bounded metric.
type liveMixed struct {
	seed  int64
	scale int

	numVertices uint32
	baseEdges   int64
	events      []dynpart.Event
	want        []uint64     // the edges alive after the last event
	final       *graph.Graph // the same as a graph, for the oracle's adjacency
	queries     []query
	checksum    uint64
	reps        int
}

const (
	liveParts      = 8
	liveBatch      = 4096
	liveDeletes    = 0.2
	liveEventsAt16 = 1_100_000 // events at RMAT scale 16; halved per scale step below
)

func (w *liveMixed) setup(_ context.Context, _ string, seed int64) error {
	w.seed = seed
	base := rmat(w.scale, w.seed)
	n := liveEventsAt16
	if w.scale < 16 {
		n >>= 16 - w.scale
	}
	w.events = dynpart.Churn(base, n, liveDeletes, w.seed)
	alive := make(map[uint64]bool)
	for _, ev := range w.events {
		c := ev.Edge.Canon()
		k := graph.PackEdge(c.U, c.V)
		if ev.Op == dynpart.Add {
			alive[k] = true
		} else {
			delete(alive, k)
		}
	}
	w.want = make([]uint64, 0, len(alive))
	for k := range alive {
		w.want = append(w.want, k)
	}
	slices.Sort(w.want)
	w.numVertices, w.baseEdges = base.NumVertices(), base.NumEdges()
	w.final = graph.FromPacked(w.numVertices, slices.Clone(w.want))
	w.queries = queryMix(1<<16, w.seed)
	w.checksum = 0
	return nil
}

func (w *liveMixed) input() inputSizes {
	return inputSizes{Scale: w.scale, Vertices: int64(w.numVertices), Edges: w.baseEdges, Events: len(w.events)}
}

func (w *liveMixed) rep(ctx context.Context, dir string, tr *tracer) (*repResult, error) {
	w.reps++
	liveDir := filepath.Join(dir, fmt.Sprintf("live-%d", w.reps))
	defer os.RemoveAll(liveDir)

	batches := (len(w.events) + liveBatch - 1) / liveBatch
	applyMS := make([]float64, 0, batches)
	reader := newClients(1, 1<<18)[0]
	var lv *live.Live
	var wall time.Duration
	var overlayMax int64
	r, err := timed(func() error {
		t0 := time.Now()
		var err error
		if lv, err = live.Open(liveDir, live.Config{NumParts: liveParts, Seed: w.seed}); err != nil {
			return err
		}
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			tk := tr.track("reader")
			defer tk.begin("store.queries").end()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ep := lv.Epoch()
				if ep.NumVertices() == 0 {
					time.Sleep(50 * time.Microsecond) // nothing ingested yet
					continue
				}
				reader.issue(ctx, ep, w.queries[i%len(w.queries)], ep.NumVertices(), math.MaxInt)
			}
		}()
		tk := tr.track("writer")
		ingest := tk.begin("live.ingest")
		for i := 0; i < len(w.events) && err == nil; i += liveBatch {
			b0 := time.Now()
			s := tk.begin("live.Apply")
			_, err = lv.Apply(w.events[i:min(i+liveBatch, len(w.events))])
			s.end()
			applyMS = append(applyMS, 1e3*seconds(time.Since(b0)))
			if tr != nil {
				added, deleted := lv.Epoch().OverlayEdges()
				overlayMax = max(overlayMax, added+deleted)
			}
		}
		ingest.end()
		close(stop)
		<-done
		wall = time.Since(t0)
		return err
	})
	if lv != nil {
		defer lv.Close()
	}
	if err != nil {
		return nil, err
	}
	r.ops = len(applyMS)

	// The final state: every surviving edge in exactly one part.
	ep := lv.Epoch()
	type owned struct {
		key   uint64
		owner int32
	}
	var all []owned
	for s := 0; s < ep.NumShards(); s++ {
		for _, k := range ep.ShardEdgesPacked(s) {
			all = append(all, owned{k, int32(s)})
		}
	}
	slices.SortFunc(all, func(a, b owned) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.owner, b.owner))
	})
	keys, owner := make([]uint64, len(all)), make([]int32, len(all))
	for i, o := range all {
		keys[i], owner[i] = o.key, o.owner
	}
	q, err := checkPartition(w.numVertices, w.want, keys, owner, liveParts)
	if err != nil {
		r.fail(err)
	}
	if err := lv.State().CheckInvariants(); err != nil {
		r.fail(err)
	}
	checkRepeats(r, &w.checksum, lv.Checksum())
	// Answers given during ingest depend on the epoch they met; the oracle
	// checks the query path on the final epoch instead.
	probe := newClients(1, checkedPerOp)[0]
	for _, qu := range w.queries[:checkedPerOp] {
		probe.issue(ctx, ep, qu, ep.NumVertices(), 1)
	}
	probe.check(w.final, r)
	for _, err := range reader.errs {
		r.fail(err)
	}

	latencyVals(r, []*client{reader}, wall)
	slices.Sort(applyMS)
	stats := lv.Stats()
	v := r.vals
	// The two sides are bounded apart: wall_s is the writer's time for the
	// whole stream, work_per_s the reader's rate beside it.
	v["work_per_s"] = v["queries_per_s"]
	v["ingest_events_per_s"] = float64(len(w.events)) / seconds(wall)
	v["rf"], v["edge_balance"] = q.rf, q.edgeBalance
	v["store.hops_per_query"] = float64(reader.hops) / float64(reader.queries)
	v["store.shard_tasks_per_query"] = float64(reader.tasks) / float64(reader.queries)
	v["live.apply_p50_ms"] = percentile(applyMS, 50)
	v["live.apply_max_ms"] = applyMS[len(applyMS)-1]
	v["live.compactions"] = float64(stats.Compactions)
	v["live.overlay_edges_max"] = float64(overlayMax)
	return r, nil
}
