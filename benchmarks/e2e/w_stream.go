package main

import (
	"context"
	"io"
	"time"

	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/methods"
	"github.com/distributedne/dne/internal/partition"
	_ "github.com/distributedne/dne/internal/streampart" // registers hdrf
)

// streamHDRF is workload stream-hdrf: partitioning from disk under a small
// memory budget. Set-up writes the graph as 16 canonical ESZ1 files; a rep
// opens them as a graph.Source and runs the registry's HDRF over it.
type streamHDRF struct {
	seed  int64
	scale int

	numVertices uint32
	want        []uint64
	diskBytes   int64
	checksum    uint64
}

const (
	streamParts  = 16
	streamShards = 16
)

func (w *streamHDRF) setup(_ context.Context, dir string, seed int64) error {
	w.seed = seed
	g := rmat(w.scale, w.seed)
	size, err := writeShards(dir, g, streamShards)
	if err != nil {
		return err
	}
	w.numVertices, w.want, w.diskBytes, w.checksum = g.NumVertices(), packedEdges(g), size, 0
	return nil
}

func (w *streamHDRF) input() inputSizes {
	return inputSizes{Scale: w.scale, Vertices: int64(w.numVertices), Edges: int64(len(w.want)), DiskBytes: w.diskBytes}
}

func (w *streamHDRF) rep(ctx context.Context, dir string, tr *tracer) (*repResult, error) {
	tk := tr.track("main")
	times := &sourceTimes{tr: tr}
	var res *partition.Result
	var meter graph.ByteMeter
	var part time.Duration
	r, err := timed(func() error {
		src, err := graph.DirSource(dir)
		if err != nil {
			return err
		}
		meter = src.(graph.ByteMeter)
		if tr != nil {
			src = wrapSource(src, times)
		}
		t0 := time.Now()
		s := tk.begin("methods.PartitionSource")
		res, err = methods.PartitionSource(ctx, "hdrf", src, partition.NewSpec(streamParts, w.seed))
		s.end()
		part = time.Since(t0)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.ops = 1

	// Canonical stripes replay the canonical edge list, so owner i is the
	// owner of input edge i.
	owner := res.Partitioning.Owner
	q, err := checkPartition(w.numVertices, w.want, w.want, owner, streamParts)
	if err != nil {
		r.fail(err)
	}
	checkRepeats(r, &w.checksum, ownerChecksum(owner))

	edges := float64(len(w.want))
	v := r.vals
	v["work_per_s"] = edges / seconds(part)
	v["rf"], v["edge_balance"] = q.rf, q.edgeBalance
	v["partition_edges_per_s"] = edges / seconds(part)
	v["graph.bytes_read_mb"] = float64(meter.BytesRead()) / mb
	v["graph.disk_bytes_per_edge"] = float64(w.diskBytes) / edges
	v["methods.peak_accounted_mb"] = float64(res.Stats.PeakMemBytes) / mb
	if tr != nil {
		next := time.Duration(times.next.Load())
		v["graph.source_next_s"] = seconds(next)
		v["graph.source_passes"] = float64(times.passes.Load())
		v["methods.assign_self_s"] = seconds(part - next)
		scan, err := scanOnce(dir)
		if err != nil {
			return nil, err
		}
		v["graph.scan_edges_per_s"] = edges / seconds(scan)
	}
	return r, nil
}

// scanOnce times one bare pass over the shard files that does nothing with
// the edges: the ceiling decoding sets on any streaming method.
func scanOnce(dir string) (time.Duration, error) {
	src, err := graph.DirSource(dir)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	st, err := src.Edges()
	if err != nil {
		return 0, err
	}
	defer st.Close()
	for {
		if _, _, err := st.Next(); err == io.EOF {
			return time.Since(t0), nil
		} else if err != nil {
			return 0, err
		}
	}
}
