package dsa

import (
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// Parallel least-significant-digit radix sort over primitive keys, 16 bits
// per pass. Every pass is stable, so the overall sort is stable; uniform
// passes (all keys sharing one digit, e.g. the high halves of small vertex
// ids) are detected from the histogram and skipped entirely. With one
// worker the passes degenerate to a plain counting sort with no goroutine
// or synchronisation overhead.

const (
	radixBits = 16
	radixSize = 1 << radixBits
	radixMask = radixSize - 1

	// sortSmall is the length below which pdqsort beats the histogram setup.
	sortSmall = 1 << 11
	// sortMinChunk is the smallest per-worker chunk worth a goroutine.
	sortMinChunk = 1 << 16
)

// SortU64 sorts keys ascending.
func SortU64(keys []uint64) {
	if len(keys) < sortSmall {
		slices.Sort(keys)
		return
	}
	radixSort(keys, make([]uint64, len(keys)), 4)
}

// MergeU64 merges ascending runs of keys into one new ascending slice,
// without the second buffer as long as the output that sorting a
// concatenated copy needs. When vals is not nil it pairs each run with a
// payload slice of the same length, and every value moves beside its key
// into a second new slice; otherwise the second result is nil. Equal keys
// come out in run order.
//
// A counting pass buckets the keys on their top varying bits, about one
// bucket per sixteen keys; each run's keys then go into their buckets in
// order, each group merged into its bucket from the back. Keys spread over
// their range merge in about one pass, keys crowded into one bucket in up to
// one pass per run. Both passes split the buckets into contiguous ranges,
// one per worker (sortWorkers): a worker takes from every run the segment
// that falls in its range, so the workers write disjoint parts of the
// output. Runs that are not ascending give an unordered result.
func MergeU64[V any](runs [][]uint64, vals [][]V) ([]uint64, []V) {
	n := 0
	lo, hi := ^uint64(0), uint64(0)
	for _, r := range runs {
		if len(r) > 0 {
			n += len(r)
			lo, hi = min(lo, r[0]), max(hi, r[len(r)-1])
		}
	}
	keys := make([]uint64, n)
	var out []V
	if vals != nil {
		out = make([]V, n)
	}
	width := bits.Len(uint(n >> 4))
	shift := uint(max(0, bits.Len64(lo^hi)-width))
	mask := uint64(1)<<width - 1
	nb := int(mask) + 1
	// segment returns where the keys of buckets d and up begin in run r.
	segment := func(r []uint64, d int) int {
		return sort.Search(len(r), func(i int) bool { return int((r[i]>>shift)&mask) >= d })
	}
	w := sortWorkers(n)
	// end[d] is where bucket d's merged part ends: first a count, then the
	// bucket's start. A worker counting buckets [dlo, dhi) writes
	// end[dlo+1 : dhi+1] alone.
	end := make([]int, nb+1)
	parallelChunks(nb, (nb+w-1)/w, w, func(_, dlo, dhi int) {
		for _, r := range runs {
			for _, k := range r[segment(r, dlo):segment(r, dhi)] {
				end[(k>>shift)&mask+1]++
			}
		}
	})
	for d := 1; d < len(end); d++ {
		end[d] += end[d-1]
	}
	// Cut the buckets into ranges of about n/w keys each.
	cuts := make([]int, w+1)
	for t := 1; t < w; t++ {
		cuts[t] = min(sort.SearchInts(end, t*n/w), nb)
	}
	cuts[w] = nb
	parallelChunks(w, 1, w, func(t, _, _ int) {
		// Below a bucket's merged part lie only smaller keys of lower
		// buckets and still-zero slots, so a group merged in from the back
		// stops there without a bucket start; floor keeps the worker off
		// the part of the output below its first bucket, another worker's.
		floor := end[cuts[t]]
		for ri, r := range runs {
			for i, stop := segment(r, cuts[t]), segment(r, cuts[t+1]); i < stop; {
				d := (r[i] >> shift) & mask
				j := i + 1
				for j < stop && (r[j]>>shift)&mask == d {
					j++
				}
				a, at := end[d]-1, end[d]+j-i-1
				for b := j - 1; b >= i; at-- {
					if a >= floor && keys[a] > r[b] {
						keys[at] = keys[a]
						if out != nil {
							out[at] = out[a]
						}
						a--
					} else {
						keys[at] = r[b]
						if out != nil {
							out[at] = vals[ri][b]
						}
						b--
					}
				}
				end[d] += j - i
				i = j
			}
		}
	})
	return keys, out
}

// sortWorkers picks the worker count for n keys: bounded by GOMAXPROCS and
// by the minimum useful chunk size, so a single-core machine (or a small
// input) runs the sequential path.
func sortWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if maxW := n / sortMinChunk; w > maxW {
		w = maxW
	}
	if w < 1 {
		w = 1
	}
	return w
}

func radixSort[T uint32 | uint64](keys, buf []T, passes int) {
	radixSortWorkers(keys, buf, passes, sortWorkers(len(keys)))
}

func radixSortWorkers[T uint32 | uint64](keys, buf []T, passes, w int) {
	if len(keys) == 0 {
		return
	}
	hist := make([]int, w*radixSize)
	src, dst := keys, buf
	for pass := 0; pass < passes; pass++ {
		if scatterPass(src, dst, uint(pass*radixBits), w, hist) {
			src, dst = dst, src
		}
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// scatterPass performs one stable counting pass of src into dst on the digit
// at shift, using w workers over contiguous chunks. It reports whether a
// scatter happened (false = the digit was uniform and the pass was skipped).
// hist is w*radixSize scratch.
func scatterPass[T uint32 | uint64](src, dst []T, shift uint, w int, hist []int) bool {
	n := len(src)
	chunk := (n + w - 1) / w
	clear(hist)

	// Per-worker digit histograms.
	parallelChunks(n, chunk, w, func(wi, lo, hi int) {
		h := hist[wi*radixSize : (wi+1)*radixSize]
		for _, k := range src[lo:hi] {
			h[uint(k>>shift)&radixMask]++
		}
	})

	// Skip the pass when every key shares one digit value (common for the
	// high halves of small ids).
	nonzero := 0
	for d := 0; d < radixSize && nonzero < 2; d++ {
		for wi := 0; wi < w; wi++ {
			if hist[wi*radixSize+d] > 0 {
				nonzero++
				break
			}
		}
	}
	if nonzero < 2 {
		return false
	}

	// Exclusive prefix in (digit, worker) order: within one digit, chunks
	// keep their original order, which is what makes the pass stable.
	sum := 0
	for d := 0; d < radixSize; d++ {
		for wi := 0; wi < w; wi++ {
			i := wi*radixSize + d
			c := hist[i]
			hist[i] = sum
			sum += c
		}
	}

	parallelChunks(n, chunk, w, func(wi, lo, hi int) {
		h := hist[wi*radixSize : (wi+1)*radixSize]
		for _, k := range src[lo:hi] {
			d := uint(k>>shift) & radixMask
			dst[h[d]] = k
			h[d]++
		}
	})
	return true
}

// parallelChunks runs fn(worker, lo, hi) over w contiguous chunks of [0, n).
// With one worker it calls fn inline.
func parallelChunks(n, chunk, w int, fn func(wi, lo, hi int)) {
	if w == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		lo := wi * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(wi, lo, hi int) {
			defer wg.Done()
			fn(wi, lo, hi)
		}(wi, lo, hi)
	}
	wg.Wait()
}
