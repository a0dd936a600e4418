package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestBucketIndexMonotone checks the bucket map is monotone and that every
// value lands in a bucket whose bounds contain it.
func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 15, 16, 31, 32, 33, 63, 64, 65, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex(%d) = %d < previous %d: not monotone", v, i, prev)
		}
		if i >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range [0,%d)", v, i, numBuckets)
		}
		if up := bucketUpper(i); v > up {
			t.Fatalf("value %d above its bucket %d upper bound %d", v, i, up)
		}
		if i > 0 {
			if lo := bucketUpper(i - 1); v <= lo {
				t.Fatalf("value %d at or below bucket %d's lower fence %d", v, i, lo)
			}
		}
		prev = i
	}
	if bucketIndex(-5) != 0 {
		t.Fatalf("negative values must clamp to bucket 0")
	}
}

// TestBucketRelativeError checks the documented bound: above the exact
// region, a bucket's width is at most 2^-subBits of its lower bound.
func TestBucketRelativeError(t *testing.T) {
	for i := 2 * subCount; i < numBuckets-1; i++ {
		lo := bucketUpper(i-1) + 1
		hi := bucketUpper(i)
		if hi == math.MaxInt64 {
			break
		}
		width := float64(hi - lo + 1)
		if rel := width / float64(lo); rel > 1.0/subCount+1e-9 {
			t.Fatalf("bucket %d [%d,%d] has relative width %.4f > %v", i, lo, hi, rel, 1.0/subCount)
		}
	}
}

// quantileOracle is the sort-every-sample reference (nearest rank).
func quantileOracle(samples []int64, q float64) int64 {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// TestQuantileVsOracle draws samples from several latency-shaped
// distributions and checks every reported quantile against the sorted
// reference within the documented bound: one bucket, i.e. ≤ 2^-subBits
// relative (plus the exact region where buckets are width 1).
func TestQuantileVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() int64{
		"uniform":     func() int64 { return rng.Int63n(1_000_000) },
		"exponential": func() int64 { return int64(rng.ExpFloat64() * 50_000) },
		"lognormal":   func() int64 { return int64(math.Exp(rng.NormFloat64()*2 + 10)) },
		"bimodal": func() int64 {
			if rng.Intn(10) == 0 {
				return 5_000_000 + rng.Int63n(1_000_000) // slow tail
			}
			return 1_000 + rng.Int63n(500)
		},
		"constant": func() int64 { return 12_345 },
		"tiny":     func() int64 { return rng.Int63n(30) }, // exact region only
	}
	quantiles := []float64{0.5, 0.9, 0.95, 0.99, 0.999, 1.0}
	for name, draw := range dists {
		h := NewHistogram()
		samples := make([]int64, 20_000)
		for i := range samples {
			samples[i] = draw()
			h.Observe(samples[i])
		}
		snap := h.Snapshot()
		if snap.Count != uint64(len(samples)) {
			t.Fatalf("%s: count %d != %d", name, snap.Count, len(samples))
		}
		var sum int64
		for _, v := range samples {
			sum += v
		}
		if snap.Sum != sum {
			t.Fatalf("%s: sum %d != %d", name, snap.Sum, sum)
		}
		for _, q := range quantiles {
			got := snap.Quantile(q)
			want := quantileOracle(samples, q)
			// got is the upper bound of want's bucket: got >= want and
			// within one bucket width above it.
			if got < want {
				t.Errorf("%s q%.3f: histogram %d below oracle %d", name, q, got, want)
				continue
			}
			slack := int64(1) // exact region: off-by-nothing, bound still 1
			if want >= 2*subCount {
				slack = want / subCount
			}
			if got > want+slack {
				t.Errorf("%s q%.3f: histogram %d exceeds oracle %d by more than one bucket (%d)",
					name, q, got, want, slack)
			}
		}
		if m := snap.Quantile(1.0); m != snap.Max {
			t.Errorf("%s: q1.0 = %d, want exact max %d", name, m, snap.Max)
		}
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines; run
// under -race this is the concurrent-recorder race test, and the final
// snapshot must account for every observation exactly.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const workers = 8
	const perWorker = 5_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				h.Observe(rng.Int63n(1 << 40))
			}
		}(w)
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != workers*perWorker {
		t.Fatalf("count %d != %d", snap.Count, workers*perWorker)
	}
	var bucketTotal uint64
	for _, c := range snap.Counts {
		bucketTotal += c
	}
	if bucketTotal != snap.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, snap.Count)
	}
}

// TestNilHistogram checks the no-op contract of a nil recorder.
func TestNilHistogram(t *testing.T) {
	var h *Histogram
	h.Observe(42) // must not panic
	snap := h.Snapshot()
	if snap.Count != 0 || snap.Quantile(0.99) != 0 {
		t.Fatalf("nil histogram must snapshot empty, got %+v", snap)
	}
}
