package store

import (
	"sync/atomic"
	"time"

	"github.com/distributedne/dne/internal/obs"
)

// queryKind indexes the per-kind query counters.
type queryKind int

const (
	qNeighbors queryKind = iota
	qKHop
	numKinds
)

// kindNames are the exported label values, indexed by queryKind.
var kindNames = [numKinds]string{"neighbors", "khop"}

// Obs bundles the store's externally registered instruments: per-endpoint
// latency histograms and the exported touch/hop/task counters. All handles
// are nil-safe, so a store with no Obs (or a nil registry) records nothing
// beyond its built-in counters. One Obs may be shared by many stores — the
// families then aggregate across them, which is what a serving process
// wants on /metrics.
type Obs struct {
	latency [numKinds]*obs.Histogram
	touches *obs.Counter
	hops    *obs.Counter
	tasks   *obs.Counter
}

// NewObs registers the store metric families on reg and returns the handle
// to hang on stores via SetObs. A nil registry yields a fully no-op handle.
func NewObs(reg *obs.Registry) *Obs {
	o := &Obs{
		touches: reg.Counter("dne_store_shard_touches_total",
			"Shard fetches performed by store queries."),
		hops: reg.Counter("dne_store_cross_shard_hops_total",
			"Replica fetches beyond the first, summed over queries."),
		tasks: reg.Counter("dne_store_shard_tasks_total",
			"Per-shard scan tasks run by KHop traversals."),
	}
	for k := range o.latency {
		o.latency[k] = reg.DurationHistogram("dne_store_query_duration_seconds",
			"Store query latency by endpoint.", "kind", kindNames[k])
	}
	return o
}

// metrics is the store's live instrumentation: lock-free counters bumped on
// every query so serving cost can be read off a running store, plus the
// optional obs handles exported on /metrics.
type metrics struct {
	queries  [numKinds]atomic.Int64
	hops     atomic.Int64 // cross-shard hops (replica fetches beyond the first)
	tasks    atomic.Int64 // KHop per-shard scan tasks
	latency  atomic.Int64 // summed query wall time, ns
	perShard []atomic.Int64
	obs      atomic.Pointer[Obs] // nil = uninstrumented
}

func (m *metrics) init(numShards int) {
	m.perShard = make([]atomic.Int64, numShards)
}

// SetObs attaches (or, with nil, detaches) the exported instruments.
// Safe to call on a serving store; queries pick the handle up atomically.
func (st *Store) SetObs(o *Obs) { st.metrics.obs.Store(o) }

// begin counts one query of kind k and returns its start time, which the
// caller hands to end when the query finishes.
func (m *metrics) begin(k queryKind) time.Time {
	m.queries[k].Add(1)
	return time.Now()
}

// end records the latency of a kind-k query begun at start.
func (m *metrics) end(k queryKind, start time.Time) {
	d := int64(time.Since(start))
	m.latency.Add(d)
	if o := m.obs.Load(); o != nil {
		o.latency[k].Observe(d)
	}
}

func (m *metrics) touchShard(s int) {
	m.perShard[s].Add(1)
	if o := m.obs.Load(); o != nil {
		o.touches.Inc()
	}
}

func (m *metrics) addHops(n int64) {
	m.hops.Add(n)
	if o := m.obs.Load(); o != nil {
		o.hops.Add(n)
	}
}

func (m *metrics) addTasks(n int64) {
	m.tasks.Add(n)
	if o := m.obs.Load(); o != nil {
		o.tasks.Add(n)
	}
}

// Metrics is a point-in-time snapshot of a store's serving counters.
type Metrics struct {
	NeighborsQueries int64   `json:"neighborsQueries"`
	KHopQueries      int64   `json:"khopQueries"`
	CrossShardHops   int64   `json:"crossShardHops"`
	ShardTasks       int64   `json:"shardTasks"`
	PerShardTouches  []int64 `json:"perShardTouches"`
	// TotalLatency is the summed wall time of all finished queries.
	TotalLatency time.Duration `json:"totalLatencyNs"`
}

// Queries is the total query count across kinds.
func (m Metrics) Queries() int64 {
	return m.NeighborsQueries + m.KHopQueries
}

// HopsPerQuery is the average cross-shard fan-out per query — the measured
// serving analogue of the partitioning's replication factor.
func (m Metrics) HopsPerQuery() float64 {
	q := m.Queries()
	if q == 0 {
		return 0
	}
	return float64(m.CrossShardHops) / float64(q)
}

// Metrics returns a snapshot of the store's counters. Queries in flight may
// be partially reflected; counters are individually exact.
func (st *Store) Metrics() Metrics {
	m := Metrics{
		NeighborsQueries: st.metrics.queries[qNeighbors].Load(),
		KHopQueries:      st.metrics.queries[qKHop].Load(),
		CrossShardHops:   st.metrics.hops.Load(),
		ShardTasks:       st.metrics.tasks.Load(),
		TotalLatency:     time.Duration(st.metrics.latency.Load()),
		PerShardTouches:  make([]int64, len(st.metrics.perShard)),
	}
	for i := range st.metrics.perShard {
		m.PerShardTouches[i] = st.metrics.perShard[i].Load()
	}
	return m
}

// ResetMetrics zeroes all counters (between workload phases).
func (st *Store) ResetMetrics() {
	for k := range st.metrics.queries {
		st.metrics.queries[k].Store(0)
	}
	st.metrics.hops.Store(0)
	st.metrics.tasks.Store(0)
	st.metrics.latency.Store(0)
	for i := range st.metrics.perShard {
		st.metrics.perShard[i].Store(0)
	}
}
