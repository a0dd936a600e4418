package methods

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// PartitionSource is the source-based entry point of the registry: it
// resolves the named method and partitions the source's edge stream.
// Stream-capable methods (Descriptor.Streams) consume the stream directly
// in O(dense-state + chunk) memory; for the rest the source is
// transparently materialized into a graph first, and the run's Stats carry
// the warning — a "materialize" phase plus Extra["materialized_graph_bytes"]
// — so harnesses and callers can see that the O(chunk) promise did not hold
// for that method.
func PartitionSource(ctx context.Context, name string, src graph.Source, spec partition.Spec) (*partition.Result, error) {
	d, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("methods: unknown method %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	resolved, err := d.ResolveSpec(spec)
	if err != nil {
		return nil, err
	}
	p := d.Factory()
	if d.Streams {
		sp, ok := p.(partition.StreamPartitioner)
		if !ok {
			return nil, fmt.Errorf("methods: %s declares Streams but %T is not a StreamPartitioner", d.Name, p)
		}
		return sp.PartitionStream(ctx, src, resolved)
	}
	start := time.Now()
	g, err := graph.FromSource(src, func(int64) error { return ctx.Err() })
	if err != nil {
		return nil, fmt.Errorf("methods: materializing source for %s: %w", d.Name, err)
	}
	materialize := time.Since(start)
	res, err := p.Partition(ctx, g, resolved)
	if err != nil {
		return nil, err
	}
	// Surface the materialization in the stats: phase first (it happened
	// first), memory floor at the resident graph, and an explicit extra.
	res.Stats.Phases = append([]partition.PhaseTiming{{Name: "materialize", Elapsed: materialize}}, res.Stats.Phases...)
	res.Stats.Wall += materialize
	if fp := g.MemoryFootprint(); res.Stats.PeakMemBytes < fp {
		res.Stats.PeakMemBytes = fp
	}
	res.Stats.SetExtra("materialized_graph_bytes", float64(g.MemoryFootprint()))
	return res, nil
}
