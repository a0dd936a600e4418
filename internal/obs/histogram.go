package obs

import (
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Log-bucketed histogram. Values (int64, typically nanoseconds) map to
// buckets that are exact below 2·2^subBits and geometric above: each octave
// [2^e, 2^(e+1)) splits into 2^subBits linear sub-buckets, so a bucket's
// width is at most 2^-subBits of its value. With subBits = 4 every reported
// quantile is within one bucket of the true order statistic — a bounded
// relative error of 1/16 = 6.25% — while the whole histogram is a fixed
// 976-counter array: recording is one atomic add, and a run of any length
// costs O(buckets) memory instead of retaining every sample.
//
// Recording is sharded: each Observe lands in one of a small power-of-two
// set of counter arrays picked by a per-goroutine hint, so concurrent
// recorders on different CPUs rarely contend on a cache line. Snapshot
// merges the shards.

const (
	// subBits is the per-octave resolution: 2^subBits linear sub-buckets
	// per power of two, bounding relative bucket width to 2^-subBits.
	subBits  = 4
	subCount = 1 << subBits

	// numBuckets covers the exact region [0, 2·subCount) plus every octave
	// up to 2^64.
	numBuckets = 2*subCount + (64-1-subBits)*subCount
)

// bucketIndex maps a non-negative value to its bucket. Negative values
// clamp to bucket 0.
func bucketIndex(v int64) int {
	if v < 0 {
		return 0
	}
	u := uint64(v)
	if u < 2*subCount {
		return int(u)
	}
	e := bits.Len64(u) - 1 // u ∈ [2^e, 2^(e+1)), e ≥ subBits+1
	mant := (u >> (uint(e) - subBits)) - subCount
	return (e-subBits)*subCount + int(mant) + subCount
}

// bucketUpper returns the inclusive upper bound of bucket i — the value a
// quantile read from this bucket reports.
func bucketUpper(i int) int64 {
	if i < 2*subCount {
		return int64(i)
	}
	rest := i - subCount
	e := rest/subCount + subBits
	mant := rest % subCount
	u := uint64(subCount+mant+1)<<(uint(e)-subBits) - 1
	if u > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(u)
}

// histShard is one recorder stripe. The trailing pad keeps adjacent shards
// off the same cache line for the scalar counters.
type histShard struct {
	counts [numBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
	_      [5]uint64
}

// Histogram is a concurrent log-bucketed histogram. The zero value is not
// usable; construct with NewHistogram (standalone) or Registry.Histogram /
// Registry.DurationHistogram (registered). A nil *Histogram is a no-op
// recorder, so uninstrumented hot paths pay only a nil check.
type Histogram struct {
	shards []histShard
	mask   uint64
	// scale converts recorded integer values to the exported unit at
	// exposition time (1e-9 for nanosecond recordings exported as seconds).
	scale float64
}

// NewHistogram returns an unregistered histogram (scale 1).
func NewHistogram() *Histogram { return newHistogram(1) }

func newHistogram(scale float64) *Histogram {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 16 {
		n <<= 1
	}
	return &Histogram{shards: make([]histShard, n), mask: uint64(n - 1), scale: scale}
}

// shard picks this goroutine's stripe. Goroutine stacks are distinct
// allocations, so the address of a stack byte is a cheap, allocation-free
// hint that spreads concurrent recorders across stripes; any skew only
// costs contention, never correctness.
func (h *Histogram) shard() *histShard {
	if h.mask == 0 {
		return &h.shards[0]
	}
	var b byte
	p := uint64(uintptr(unsafe.Pointer(&b)))
	return &h.shards[(p>>8)&h.mask]
}

// Observe records one value. Nil-safe: a nil histogram is a no-op.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	s := h.shard()
	s.counts[bucketIndex(v)].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
	for {
		old := s.max.Load()
		if v <= old || s.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// HistSnapshot is a point-in-time merge of a histogram's shards: a dense
// bucket array plus the scalar aggregates.
type HistSnapshot struct {
	Counts [numBuckets]uint64
	Count  uint64
	Sum    int64
	Max    int64
}

// Snapshot merges the shards. Concurrent recordings may be partially
// reflected; each counter is individually exact.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.counts {
			s.Counts[b] += sh.counts[b].Load()
		}
		s.Count += sh.count.Load()
		s.Sum += sh.sum.Load()
		if m := sh.max.Load(); m > s.Max {
			s.Max = m
		}
	}
	return s
}

// Quantile returns the q-quantile (nearest rank) as the upper bound of the
// bucket holding that rank, clamped to the observed maximum — within one
// bucket width (≤ 2^-subBits relative) of the exact order statistic.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i := range s.Counts {
		cum += s.Counts[i]
		if cum >= rank {
			u := bucketUpper(i)
			if u > s.Max && s.Max > 0 {
				return s.Max
			}
			return u
		}
	}
	return s.Max
}
