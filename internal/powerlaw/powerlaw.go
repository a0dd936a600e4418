// Package powerlaw implements discrete power-law fitting after Clauset,
// Shalizi and Newman, "Power-law distributions in empirical data" (SIAM
// Review 2009) — the formulation the paper adopts for its Table-1 analysis
// (§6, Eq. 6): Pr[d] = d^(−α) · ζ(α, dmin)^(−1).
//
// The package is used to validate that the synthetic stand-ins in
// internal/datasets actually have the degree skew the paper's analysis
// assumes, and by cmd/graphstat to report the fitted scaling parameter of any
// graph.
package powerlaw

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/distributedne/dne/internal/bound"
)

// Fit is the result of fitting a discrete power law to a sample.
type Fit struct {
	// Alpha is the maximum-likelihood scaling parameter α.
	Alpha float64
	// XMin is the lower cutoff dmin: the power law is fitted to samples
	// >= XMin only.
	XMin int64
	// KS is the Kolmogorov–Smirnov distance between the empirical CDF of
	// the tail (samples >= XMin) and the fitted model.
	KS float64
	// NTail is the number of samples >= XMin.
	NTail int
	// LogLik is the maximized log-likelihood of the tail under the model.
	LogLik float64
}

func (f Fit) String() string {
	return fmt.Sprintf("power-law fit: alpha=%.3f xmin=%d KS=%.4f n_tail=%d", f.Alpha, f.XMin, f.KS, f.NTail)
}

// alphaSearch brackets the MLE search. Real-world skewed graphs have
// 2 < α < 3 (§1); the bracket is generous around that.
const (
	alphaLo = 1.01
	alphaHi = 8.0
)

// FitAlpha returns the maximum-likelihood α for the discrete power law with
// fixed lower cutoff xmin, together with the log-likelihood at the optimum.
// Samples below xmin are ignored. It returns an error if fewer than two
// samples are >= xmin.
func FitAlpha(samples []int64, xmin int64) (alpha, logLik float64, err error) {
	if xmin < 1 {
		return 0, 0, fmt.Errorf("powerlaw: xmin must be >= 1, got %d", xmin)
	}
	var n int
	var sumLog float64
	for _, x := range samples {
		if x >= xmin {
			n++
			sumLog += math.Log(float64(x))
		}
	}
	if n < 2 {
		return 0, 0, fmt.Errorf("powerlaw: need >= 2 samples above xmin=%d, got %d", xmin, n)
	}
	// L(α) = −n·ln ζ(α, xmin) − α·Σ ln x is strictly concave in α, so a
	// golden-section search converges to the global maximum.
	ll := func(a float64) float64 {
		return -float64(n)*math.Log(bound.Zeta(a, float64(xmin))) - a*sumLog
	}
	lo, hi := alphaLo, alphaHi
	const phi = 0.6180339887498949
	x1 := hi - phi*(hi-lo)
	x2 := lo + phi*(hi-lo)
	f1, f2 := ll(x1), ll(x2)
	for hi-lo > 1e-7 {
		if f1 < f2 {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + phi*(hi-lo)
			f2 = ll(x2)
		} else {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - phi*(hi-lo)
			f1 = ll(x1)
		}
	}
	alpha = (lo + hi) / 2
	return alpha, ll(alpha), nil
}

// KSDistance returns the Kolmogorov–Smirnov distance between the empirical
// distribution of the samples >= xmin and the discrete power law (α, xmin).
// Both CDFs are right-continuous step functions; the distance compares them
// at every data point (empirical at x vs model at x, and empirical just
// below x vs model at x−1), the standard discrete-data KS statistic.
func KSDistance(samples []int64, alpha float64, xmin int64) float64 {
	tail := make([]int64, 0, len(samples))
	for _, x := range samples {
		if x >= xmin {
			tail = append(tail, x)
		}
	}
	if len(tail) == 0 {
		return 1
	}
	sort.Slice(tail, func(i, j int) bool { return tail[i] < tail[j] })
	// Incremental Hurwitz zeta: z = ζ(α, k) starting at k = xmin, with
	// ζ(α, k+1) = ζ(α, k) − k^(−α). One pow per integer in [xmin, max].
	zxm := bound.Zeta(alpha, float64(xmin))
	z := zxm // ζ(α, k) for the current k
	k := xmin
	n := float64(len(tail))
	var ks float64
	i := 0
	for i < len(tail) {
		x := tail[i]
		j := i
		for j < len(tail) && tail[j] == x {
			j++
		}
		// Advance z to ζ(α, x): modelBelow = 1 − ζ(α,x)/ζ(α,xmin) is the
		// model CDF at x−1.
		for k < x {
			z -= math.Pow(float64(k), -alpha)
			k++
		}
		modelBelow := 1 - z/zxm
		modelAt := 1 - (z-math.Pow(float64(x), -alpha))/zxm
		empHi := float64(j) / n // empirical CDF at x
		empLo := float64(i) / n // empirical CDF just below x
		if d := math.Abs(empHi - modelAt); d > ks {
			ks = d
		}
		if d := math.Abs(empLo - modelBelow); d > ks {
			ks = d
		}
		i = j
	}
	return ks
}

// maxXMinCandidates caps how many distinct xmin values FitTail scans; the
// smallest distinct values matter most, and graphs can have thousands of
// distinct degrees.
const maxXMinCandidates = 40

// FitTail fits a discrete power law to the samples, selecting xmin by
// minimizing the KS distance over the distinct sample values (the Clauset et
// al. recipe) and α by maximum likelihood at each candidate.
func FitTail(samples []int64) (Fit, error) {
	if len(samples) < 10 {
		return Fit{}, errors.New("powerlaw: need at least 10 samples")
	}
	distinct := distinctSorted(samples)
	if len(distinct) < 2 {
		return Fit{}, errors.New("powerlaw: degenerate sample (single distinct value)")
	}
	// Candidate xmins: the smallest distinct values, capped. Also require a
	// minimum tail mass so the KS estimate is meaningful.
	if len(distinct) > maxXMinCandidates {
		distinct = distinct[:maxXMinCandidates]
	}
	best := Fit{KS: math.Inf(1)}
	for _, xmin := range distinct {
		alpha, ll, err := FitAlpha(samples, xmin)
		if err != nil {
			continue
		}
		nTail := countTail(samples, xmin)
		if nTail < 10 {
			continue
		}
		ks := KSDistance(samples, alpha, xmin)
		if ks < best.KS {
			best = Fit{Alpha: alpha, XMin: xmin, KS: ks, NTail: nTail, LogLik: ll}
		}
	}
	if math.IsInf(best.KS, 1) {
		return Fit{}, errors.New("powerlaw: no viable xmin candidate")
	}
	return best, nil
}

func distinctSorted(samples []int64) []int64 {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:0]
	for i, x := range s {
		if x < 1 {
			continue
		}
		if len(out) == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
		_ = i
	}
	return out
}

func countTail(samples []int64, xmin int64) int {
	n := 0
	for _, x := range samples {
		if x >= xmin {
			n++
		}
	}
	return n
}
