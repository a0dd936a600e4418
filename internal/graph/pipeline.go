package graph

import (
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// prefetchDepth is how many decoded chunks a Prefetched source keeps in
// flight ahead of its consumer: deep enough to ride out consumer bursts (a
// few hundred KiB of buffered edges), shallow enough that memory stays
// O(chunk).
const prefetchDepth = 4

// Prefetched decorates a source with a decode-ahead stage: each pass runs
// the inner stream on its own goroutine, which decodes (and, for disk
// sources, reads) up to prefetchDepth chunks ahead of the consumer through a
// bounded channel. The consumer sees the exact same chunks in the exact
// same order — the decorator is invisible to determinism — but disk latency
// and decode CPU overlap with downstream work instead of serializing with
// it.
//
// Prefetched deliberately does NOT implement Unwrapper: order-independent
// passes (degree counting, quality measurement) that strip decorators via
// RawSource still land on the prefetcher, so every pass of a stream run
// gets decode-ahead, not just the assignment pass.
func Prefetched(src Source) Source {
	return &prefetchedSource{inner: src}
}

type prefetchedSource struct {
	inner    Source
	decodeNS atomic.Int64 // cumulative time inside the inner stream's Next
}

// DecodeTime reports the cumulative time this source's decode goroutines
// spent pulling chunks off the inner stream (disk reads + ESZ1 decoding),
// across all passes. Backpressure waits are excluded — those are the stall
// counters. Partition runners surface it as a phase so traces show the
// decode stage of a run.
func (s *prefetchedSource) DecodeTime() time.Duration {
	return time.Duration(s.decodeNS.Load())
}

func (s *prefetchedSource) Info() SourceInfo {
	info := s.inner.Info()
	info.Name = "prefetch:" + info.Name
	return info
}

// AccountBytes is the analytic footprint of the buffer ring: prefetchDepth
// in-flight chunks plus the one the consumer holds, keys and positions.
func (s *prefetchedSource) AccountBytes() int64 {
	return (prefetchDepth + 1) * SourceChunkEdges * 16
}

// BytesRead passes the inner source's storage meter through, so callers
// reporting disk traffic see through the decorator.
func (s *prefetchedSource) BytesRead() int64 {
	if bm, ok := s.inner.(ByteMeter); ok {
		return bm.BytesRead()
	}
	return 0
}

func (s *prefetchedSource) Edges() (EdgeStream, error) {
	st := &prefetchStream{
		filled: make(chan prefetchChunk, prefetchDepth),
		free:   make(chan prefetchChunk, prefetchDepth),
		stop:   make(chan struct{}),
	}
	for i := 0; i < prefetchDepth; i++ {
		st.free <- prefetchChunk{}
	}
	go st.produce(s)
	return st, nil
}

// prefetchChunk is one decoded chunk in flight. keys/posBuf are the owned
// buffers, recycled through the free ring; pos aliases posBuf when the
// inner chunk carried positions and is nil for sequential chunks (the
// nil-ness is part of the stream contract and must survive the copy).
type prefetchChunk struct {
	keys   []uint64
	pos    []int64
	posBuf []int64
	err    error
}

type prefetchStream struct {
	filled chan prefetchChunk
	free   chan prefetchChunk
	stop   chan struct{}
	once   sync.Once
	cur    prefetchChunk
	holds  bool
	done   bool
}

// produce runs on the decode goroutine: pull chunks off the inner stream,
// copy them into ring buffers (the inner stream reuses its chunk memory),
// and hand them downstream. Time blocked waiting for a free buffer or for
// the consumer to take a filled one is decode-side stall — the signal that
// the consumer, not the disk, is the bottleneck.
func (st *prefetchStream) produce(src *prefetchedSource) {
	defer close(st.filled)
	es, err := src.inner.Edges()
	if err != nil {
		select {
		case st.filled <- prefetchChunk{err: err}:
		case <-st.stop:
		}
		return
	}
	defer es.Close()
	for {
		decode := time.Now()
		keys, pos, err := es.Next()
		src.decodeNS.Add(time.Since(decode).Nanoseconds())
		if err == io.EOF {
			return
		}
		if err != nil {
			select {
			case st.filled <- prefetchChunk{err: err}:
			case <-st.stop:
			}
			return
		}
		waitFree := time.Now()
		var c prefetchChunk
		select {
		case c = <-st.free:
		case <-st.stop:
			return
		}
		stallDecodeNS.Add(time.Since(waitFree).Nanoseconds())
		c.err = nil
		c.keys = append(c.keys[:0], keys...)
		if pos != nil {
			c.posBuf = append(c.posBuf[:0], pos...)
			c.pos = c.posBuf
		} else {
			c.pos = nil
		}
		waitSend := time.Now()
		select {
		case st.filled <- c:
		case <-st.stop:
			return
		}
		stallDecodeNS.Add(time.Since(waitSend).Nanoseconds())
		streamChunksDecoded.Add(1)
	}
}

func (st *prefetchStream) Next() ([]uint64, []int64, error) {
	if st.done {
		return nil, nil, io.EOF
	}
	if st.holds {
		st.holds = false
		select {
		case st.free <- st.cur:
		default: // ring full after an error path; drop the buffer
		}
		st.cur = prefetchChunk{}
	}
	wait := time.Now()
	c, ok := <-st.filled
	stallConsumeNS.Add(time.Since(wait).Nanoseconds())
	if !ok {
		st.done = true
		return nil, nil, io.EOF
	}
	if c.err != nil {
		st.done = true
		return nil, nil, c.err
	}
	st.cur, st.holds = c, true
	return c.keys, c.pos, nil
}

func (st *prefetchStream) Close() error {
	st.once.Do(func() { close(st.stop) })
	st.done = true
	return nil
}
