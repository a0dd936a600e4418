package gen

import (
	"io"

	"github.com/distributedne/dne/internal/graph"
)

// RMATSource is the RMAT generator as a graph.Source: each pass replays the
// exact raw sample sequence of StreamRMAT(scale, edgeFactor, seed) —
// canonicalized, self loops dropped, duplicates kept — in O(chunk) memory.
// It is the route to partitioning a synthetic graph far larger than RAM
// without ever writing it down: the stream positions index the raw sample
// stream, not the deduplicated canonical list, so results are comparable
// across runs of the same source but not with a materialized RMAT graph.
func RMATSource(scale, edgeFactor int, seed int64) graph.Source {
	return genSource{
		name:        "rmat",
		numVertices: uint32(1) << scale,
		samples:     int64(edgeFactor) << scale,
		sampler: func() func() (uint32, uint32) {
			s := newRMATSampler(Graph500, scale, seed)
			return s.sample
		},
	}
}

// genSource adapts a deterministic sampler factory into a re-streamable
// source. NumEdges is reported unknown: self loops are dropped on the fly,
// so the post-drop count is only discoverable by a pass (SourceCounts does
// exactly that when a method needs it).
type genSource struct {
	name        string
	numVertices uint32
	samples     int64
	sampler     func() func() (uint32, uint32)
}

func (s genSource) Info() graph.SourceInfo {
	return graph.SourceInfo{Name: s.name, NumVertices: s.numVertices}
}

func (s genSource) Edges() (graph.EdgeStream, error) {
	return &genStream{
		sample:    s.sampler(),
		remaining: s.samples,
		buf:       make([]uint64, 0, graph.SourceChunkEdges),
	}, nil
}

type genStream struct {
	sample    func() (uint32, uint32)
	remaining int64
	buf       []uint64
}

func (st *genStream) Next() ([]uint64, []int64, error) {
	buf := st.buf[:0]
	for st.remaining > 0 && len(buf) < graph.SourceChunkEdges {
		st.remaining--
		u, v := st.sample()
		if u == v {
			continue // self loop, dropped as FromEdges would
		}
		buf = append(buf, graph.PackEdge(u, v))
	}
	if len(buf) == 0 {
		return nil, nil, io.EOF
	}
	return buf, nil, nil
}

func (st *genStream) Close() error { return nil }
