package live

import (
	"strconv"
	"time"

	"github.com/distributedne/dne/internal/obs"
)

// RegisterMetrics registers the live-graph metric families on reg and
// attaches the maintenance duration histograms. Gauge families read
// Stats() at scrape time, so a scrape always sees the current placement;
// the duration histograms are recorded by Apply/Compact/Rebalance as they
// run. A nil registry leaves the subsystem uninstrumented.
func (l *Live) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	l.mu.Lock()
	l.obsApply = reg.DurationHistogram("dne_live_apply_duration_seconds",
		"Wall time of live ingest batches (automatic compactions included).")
	l.obsCompact = reg.DurationHistogram("dne_live_compact_duration_seconds",
		"Wall time of overlay compactions.")
	l.obsRebalance = reg.DurationHistogram("dne_live_rebalance_duration_seconds",
		"Wall time of bounded rebalance passes.")
	l.mu.Unlock()

	gauge := func(name, help string, read func(Stats) float64) {
		reg.GaugeFunc(name, help, func(emit func(v float64, kv ...string)) {
			emit(read(l.Stats()))
		})
	}
	counter := func(name, help string, read func(Stats) float64) {
		reg.CounterFunc(name, help, func(emit func(v float64, kv ...string)) {
			emit(read(l.Stats()))
		})
	}
	gauge("dne_live_edges", "Live edges currently placed.",
		func(s Stats) float64 { return float64(s.NumEdges) })
	gauge("dne_live_vertices", "Vertices named by live edges.",
		func(s Stats) float64 { return float64(s.NumVertices) })
	gauge("dne_live_partitions", "Partition count of the live graph.",
		func(s Stats) float64 { return float64(s.NumParts) })
	gauge("dne_live_replication_factor", "Replication factor of the live placement.",
		func(s Stats) float64 { return s.ReplicationFactor })
	gauge("dne_live_edge_balance", "Max/mean partition edge count (1.0 = even).",
		func(s Stats) float64 { return s.EdgeBalance })
	gauge("dne_live_epoch", "Sequence number of the published epoch.",
		func(s Stats) float64 { return float64(s.Epoch) })
	counter("dne_live_events_total", "Mutation events applied since the live graph was opened.",
		func(s Stats) float64 { return float64(s.Events) })
	counter("dne_live_moved_edges_total", "Edges migrated by rebalance passes since the live graph was opened.",
		func(s Stats) float64 { return float64(s.Moved) })
	counter("dne_live_migrated_bytes_total", "Bytes moved by rebalance passes since the live graph was opened (log append accounting).",
		func(s Stats) float64 { return float64(s.MigratedBytes) })
	counter("dne_live_compactions_total", "Overlay compactions performed.",
		func(s Stats) float64 { return float64(s.Compactions) })

	reg.GaugeFunc("dne_live_overlay_mutations",
		"Uncompacted overlay mutations by operation.",
		func(emit func(v float64, kv ...string)) {
			s := l.Stats()
			emit(float64(s.OverlayAdds), "op", "add")
			emit(float64(s.OverlayDels), "op", "del")
		})
	reg.GaugeFunc("dne_live_partition_edges",
		"Live edges per partition.",
		func(emit func(v float64, kv ...string)) {
			for q, n := range l.Stats().Sizes {
				emit(float64(n), "partition", strconv.Itoa(q))
			}
		})
	reg.CounterFunc("dne_live_recovery_events_total",
		"Crash-recovery events in this process: torn log tails truncated and resealed.",
		func(emit func(v float64, kv ...string)) {
			if v := liveObs.tornLogs.Load(); v > 0 {
				emit(float64(v), "kind", "torn_log")
			}
		})
	reg.CounterFunc("dne_live_recovery_dropped_bytes_total",
		"Torn-tail bytes discarded while recovering live logs.",
		func(emit func(v float64, kv ...string)) {
			if v := liveObs.tornBytes.Load(); v > 0 {
				emit(float64(v))
			}
		})
	reg.GaugeFunc("dne_live_epoch_age_seconds",
		"Seconds since the current epoch was published.",
		func(emit func(v float64, kv ...string)) {
			last := l.lastPublish.Load()
			if last == 0 {
				emit(0)
				return
			}
			emit(time.Since(time.Unix(0, last)).Seconds())
		})
}
