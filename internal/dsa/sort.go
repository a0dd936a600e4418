package dsa

import (
	"math/bits"
	"runtime"
	"slices"
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

// MergeU64 merges ascending runs into one new ascending slice, without the
// second buffer as long as the output that sorting a concatenated copy
// needs. A counting pass buckets the keys on their top varying bits, about
// one bucket per sixteen keys; each run's keys then go into their buckets in
// order, each group merged into its bucket from the back. Keys spread over
// their range merge in about one pass, keys crowded into one bucket in up to
// one pass per run. Runs that are not ascending give an unordered result.
func MergeU64(runs [][]uint64) []uint64 {
	n := 0
	lo, hi := ^uint64(0), uint64(0)
	for _, r := range runs {
		if len(r) > 0 {
			n += len(r)
			lo, hi = min(lo, r[0]), max(hi, r[len(r)-1])
		}
	}
	out := make([]uint64, n)
	width := bits.Len(uint(n >> 4))
	shift := uint(max(0, bits.Len64(lo^hi)-width))
	mask := uint64(1)<<width - 1
	// start[d] is where bucket d begins, end[d] where its merged part ends.
	start := make([]int, mask+2)
	for _, r := range runs {
		for _, k := range r {
			start[(k>>shift)&mask+1]++
		}
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}
	end := slices.Clone(start)
	for _, r := range runs {
		for i := 0; i < len(r); {
			d := (r[i] >> shift) & mask
			j := i + 1
			for j < len(r) && (r[j]>>shift)&mask == d {
				j++
			}
			a, w := end[d]-1, end[d]+j-i-1
			for b := j - 1; b >= i; w-- {
				if a >= start[d] && out[a] > r[b] {
					out[w] = out[a]
					a--
				} else {
					out[w] = r[b]
					b--
				}
			}
			end[d] += j - i
			i = j
		}
	}
	return out
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
