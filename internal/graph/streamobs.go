package graph

import (
	"sync/atomic"

	"github.com/distributedne/dne/internal/obs"
)

// Package-cumulative stream instrumentation. Every metered stream (disk
// shard reads) and both sides of the decode prefetcher feed these atomics as
// they run; RegisterStreamMetrics
// exposes them on a registry so dneserve's /metrics shows live streaming
// traffic and backpressure without the hot paths ever taking a lock.
var (
	// streamBytesRead counts bytes pulled from storage by metered edge
	// streams (shard-dir sources), across all sources in the process.
	streamBytesRead atomic.Int64

	// streamChunksDecoded counts chunks handed downstream by prefetchers.
	streamChunksDecoded atomic.Int64

	// Stall time per side of the prefetcher's bounded channel, in
	// nanoseconds: how long each spent blocked on the other. decode stalls
	// mean the consumer is the bottleneck (healthy: the disk is ahead);
	// consume stalls mean the decoder can't keep up (the disk or the codec is
	// the ceiling).
	stallDecodeNS  atomic.Int64
	stallConsumeNS atomic.Int64
)

// RegisterStreamMetrics exposes the streaming pipeline's process-cumulative
// aggregates on reg: bytes read from storage, chunks decoded ahead, and
// per-stage stall seconds (the backpressure signal that says which stage is
// the ceiling). Families emit only once they have fired, so a process that
// never streams scrapes clean. Nil registry → no-op.
func RegisterStreamMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("dne_stream_bytes_read_total",
		"Bytes read from storage by edge-shard streams.",
		func(emit func(v float64, kv ...string)) {
			if v := streamBytesRead.Load(); v > 0 {
				emit(float64(v))
			}
		})
	reg.CounterFunc("dne_stream_chunks_decoded_total",
		"Edge chunks decoded ahead by pipeline prefetchers.",
		func(emit func(v float64, kv ...string)) {
			if v := streamChunksDecoded.Load(); v > 0 {
				emit(float64(v))
			}
		})
	reg.CounterFunc("dne_stream_stage_stall_seconds_total",
		"Seconds each pipeline stage spent blocked on its neighbor (stage=decode: producer waited for the consumer; stage=consume: consumer waited for decoded chunks).",
		func(emit func(v float64, kv ...string)) {
			for _, e := range []struct {
				stage string
				ns    int64
			}{
				{"decode", stallDecodeNS.Load()},
				{"consume", stallConsumeNS.Load()},
			} {
				if e.ns > 0 {
					emit(float64(e.ns)/1e9, "stage", e.stage)
				}
			}
		})
}
