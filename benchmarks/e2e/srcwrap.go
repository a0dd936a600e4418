package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/distributedne/dne/internal/graph"
)

// sourceTimes is what the timing wrappers of one source measured, summed
// over every pass. A prefetching runner may drive a stream from a goroutine
// of its own, so the counters are atomic.
type sourceTimes struct {
	tr     *tracer
	next   atomic.Int64 // nanoseconds inside EdgeStream.Next
	passes atomic.Int64 // Edges() calls
}

// timedSource times a graph.Source from outside. It forwards the optional
// interfaces the stream runners probe a source for: BytesRead
// (graph.ByteMeter), AccountBytes, ScatterTime and DecodeTime. A source
// without one of them reports 0 through the wrapper, which the runners
// treat as they treat its absence, except that a source without BytesRead
// gains a source_bytes_read extra of 0.
type timedSource struct {
	inner graph.Source
	times *sourceTimes
}

// timedOrderSource wraps an order decorator (graph.Unwrapper): Unwrap hands
// the runners the decorated source, wrapped too, so that the passes they run
// on the raw order are timed as well.
type timedOrderSource struct {
	timedSource
}

// wrapSource returns src with every pass timed into times.
func wrapSource(src graph.Source, times *sourceTimes) graph.Source {
	ts := timedSource{inner: src, times: times}
	if _, ok := src.(graph.Unwrapper); ok {
		return &timedOrderSource{ts}
	}
	return &ts
}

func (s *timedOrderSource) Unwrap() graph.Source {
	return wrapSource(s.inner.(graph.Unwrapper).Unwrap(), s.times)
}

func (s *timedSource) Info() graph.SourceInfo { return s.inner.Info() }

func (s *timedSource) Edges() (graph.EdgeStream, error) {
	pass := s.times.passes.Add(1)
	tk := s.times.tr.track(fmt.Sprintf("source pass %d", pass))
	st, err := s.inner.Edges()
	if err != nil {
		return nil, err
	}
	return &timedStream{inner: st, times: s.times, tk: tk, pass: tk.begin(spanSourcePass)}, nil
}

func (s *timedSource) BytesRead() int64 {
	if m, ok := s.inner.(graph.ByteMeter); ok {
		return m.BytesRead()
	}
	return 0
}

func (s *timedSource) AccountBytes() int64 {
	if a, ok := s.inner.(interface{ AccountBytes() int64 }); ok {
		return a.AccountBytes()
	}
	return 0
}

func (s *timedSource) ScatterTime() time.Duration {
	if a, ok := s.inner.(interface{ ScatterTime() time.Duration }); ok {
		return a.ScatterTime()
	}
	return 0
}

func (s *timedSource) DecodeTime() time.Duration {
	if a, ok := s.inner.(interface{ DecodeTime() time.Duration }); ok {
		return a.DecodeTime()
	}
	return 0
}

// timedStream is one timed pass. A pass is driven by one goroutine at a
// time, so it owns a track.
type timedStream struct {
	inner graph.EdgeStream
	times *sourceTimes
	tk    *track
	pass  spanRef
	done  bool
}

func (st *timedStream) Next() ([]uint64, []int64, error) {
	s := st.tk.begin(spanSourceNext)
	keys, pos, err := st.inner.Next()
	st.times.next.Add(int64(s.end())) // the span's two clock readings serve both
	return keys, pos, err
}

func (st *timedStream) Close() error {
	err := st.inner.Close()
	if !st.done {
		st.done = true
		st.pass.end()
	}
	return err
}
