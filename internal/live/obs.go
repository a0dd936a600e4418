package live

import (
	"strconv"
	"time"

	"github.com/distributedne/dne/internal/obs"
	"github.com/distributedne/dne/internal/store"
)

// Instrument attaches a serving process's instruments to the graph named
// name: so times and counts the queries of every base the graph serves,
// this one and each a compaction builds, and reg receives its maintenance
// duration histograms, labelled graph=name, which Apply, Compact and
// Rebalance record as they run. A nil so or reg leaves that side
// uninstrumented.
func (l *Live) Instrument(name string, reg *obs.Registry, so *store.Obs) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.storeObs = so
	l.base.SetObs(so)
	l.obsApply = reg.DurationHistogram("dne_live_apply_duration_seconds",
		"Wall time of live ingest batches (automatic compactions included).", "graph", name)
	l.obsCompact = reg.DurationHistogram("dne_live_compact_duration_seconds",
		"Wall time of overlay compactions.", "graph", name)
	l.obsRebalance = reg.DurationHistogram("dne_live_rebalance_duration_seconds",
		"Wall time of bounded rebalance passes.", "graph", name)
}

// emitFunc is how a scrape-time family emits one sample.
type emitFunc = func(v float64, kv ...string)

// RegisterMetrics registers the live-graph metric families on reg. At each
// scrape, graphs visits every served graph with its name, and each family
// emits its samples for every graph, labelled graph=name, read from its
// Stats(), so a scrape always sees the current placement. A nil registry
// registers nothing.
func RegisterMetrics(reg *obs.Registry, graphs func(visit func(name string, l *Live))) {
	if reg == nil {
		return
	}
	perGraph := func(sample func(s Stats, emit emitFunc)) func(emitFunc) {
		return func(emit emitFunc) {
			graphs(func(name string, l *Live) {
				sample(l.Stats(), func(v float64, kv ...string) { emit(v, append(kv, "graph", name)...) })
			})
		}
	}
	one := func(read func(Stats) float64) func(emitFunc) {
		return perGraph(func(s Stats, emit emitFunc) { emit(read(s)) })
	}
	reg.GaugeFunc("dne_live_edges", "Live edges currently placed.",
		one(func(s Stats) float64 { return float64(s.NumEdges) }))
	reg.GaugeFunc("dne_live_vertices", "Vertices named by live edges.",
		one(func(s Stats) float64 { return float64(s.NumVertices) }))
	reg.GaugeFunc("dne_live_partitions", "Partition count of the live graph.",
		one(func(s Stats) float64 { return float64(s.NumParts) }))
	reg.GaugeFunc("dne_live_replication_factor", "Replication factor of the live placement.",
		one(func(s Stats) float64 { return s.ReplicationFactor }))
	reg.GaugeFunc("dne_live_edge_balance", "Max/mean partition edge count (1.0 = even).",
		one(func(s Stats) float64 { return s.EdgeBalance }))
	reg.GaugeFunc("dne_live_epoch", "Sequence number of the published epoch.",
		one(func(s Stats) float64 { return float64(s.Epoch) }))
	reg.CounterFunc("dne_live_events_total", "Mutation events applied since the live graph was opened.",
		one(func(s Stats) float64 { return float64(s.Events) }))
	reg.CounterFunc("dne_live_moved_edges_total", "Edges migrated by rebalance passes since the live graph was opened.",
		one(func(s Stats) float64 { return float64(s.Moved) }))
	reg.CounterFunc("dne_live_migrated_bytes_total", "Bytes moved by rebalance passes since the live graph was opened (log append accounting).",
		one(func(s Stats) float64 { return float64(s.MigratedBytes) }))
	reg.CounterFunc("dne_live_compactions_total", "Overlay compactions performed.",
		one(func(s Stats) float64 { return float64(s.Compactions) }))
	reg.GaugeFunc("dne_live_overlay_mutations", "Uncompacted overlay mutations by operation.",
		perGraph(func(s Stats, emit emitFunc) {
			emit(float64(s.OverlayAdds), "op", "add")
			emit(float64(s.OverlayDels), "op", "del")
		}))
	reg.GaugeFunc("dne_live_partition_edges", "Live edges per partition.",
		perGraph(func(s Stats, emit emitFunc) {
			for q, n := range s.Sizes {
				emit(float64(n), "partition", strconv.Itoa(q))
			}
		}))
	reg.CounterFunc("dne_live_recovery_events_total",
		"Crash-recovery events in this process: torn log tails truncated and resealed.",
		func(emit emitFunc) {
			if v := liveObs.tornLogs.Load(); v > 0 {
				emit(float64(v), "kind", "torn_log")
			}
		})
	reg.CounterFunc("dne_live_recovery_dropped_bytes_total",
		"Torn-tail bytes discarded while recovering live logs.",
		func(emit emitFunc) {
			if v := liveObs.tornBytes.Load(); v > 0 {
				emit(float64(v))
			}
		})
	reg.GaugeFunc("dne_live_epoch_age_seconds", "Seconds since the current epoch was published.",
		func(emit emitFunc) {
			graphs(func(name string, l *Live) {
				emit(time.Since(time.Unix(0, l.lastPublish.Load())).Seconds(), "graph", name)
			})
		})
}
