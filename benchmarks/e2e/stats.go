package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"
)

// quartiles returns the first quartile, the median and the third quartile of
// xs as Python's statistics.quantiles(xs, n=4) and statistics.median give
// them, so that a spread computed here is the spread the driver computes.
// Fewer than two values have no quartiles: all three are then the one value.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), med, cut(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the exact p-th percentile (nearest rank) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(rank, len(sorted)-1))]
}

func seconds(d time.Duration) float64 { return d.Seconds() }

const mb = 1e6

// A meter measures the memory cost of a timed region: bytes allocated and
// the highest heap in use, sampled every 10 ms. It reads runtime/metrics,
// which does not stop the world as runtime.ReadMemStats does.
type meter struct {
	samples []metrics.Sample
	alloc0  uint64
	stop    chan struct{}
	done    chan uint64
}

const (
	metricAllocs  = "/gc/heap/allocs:bytes"
	metricObjects = "/memory/classes/heap/objects:bytes"
	metricUnused  = "/memory/classes/heap/unused:bytes"
)

func readHeap(s []metrics.Sample) (allocs, inuse uint64) {
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64() + s[2].Value.Uint64()
}

// startMeter collects garbage and returns freed memory to the system, so
// that the region starts from what set-up retained, then starts sampling.
func startMeter() *meter {
	runtime.GC()
	debug.FreeOSMemory()
	newSamples := func() []metrics.Sample {
		return []metrics.Sample{{Name: metricAllocs}, {Name: metricObjects}, {Name: metricUnused}}
	}
	m := &meter{samples: newSamples(), stop: make(chan struct{}), done: make(chan uint64)}
	var peak uint64
	m.alloc0, peak = readHeap(m.samples)
	go func() {
		s := newSamples()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				m.done <- peak
				return
			case <-tick.C:
				_, inuse := readHeap(s)
				peak = max(peak, inuse)
			}
		}
	}()
	return m
}

// finish stops sampling and returns the bytes allocated since startMeter and
// the peak heap in use, both in MB.
func (m *meter) finish() (allocMB, heapPeakMB float64) {
	close(m.stop)
	peak := <-m.done
	allocs, inuse := readHeap(m.samples)
	return float64(allocs-m.alloc0) / mb, float64(max(peak, inuse)) / mb
}
