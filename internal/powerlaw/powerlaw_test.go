package powerlaw

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/distributedne/dne/internal/bound"
	"github.com/distributedne/dne/internal/gen"
)

func TestFitAlphaRecoversKnownAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, trueAlpha := range []float64{2.2, 2.5, 3.0} {
		s, err := NewSampler(trueAlpha, 1)
		if err != nil {
			t.Fatal(err)
		}
		samples := s.DrawN(rng, 30000)
		alpha, _, err := FitAlpha(samples, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(alpha-trueAlpha) > 0.06 {
			t.Errorf("alpha=%.1f: MLE %.3f off by more than 0.06", trueAlpha, alpha)
		}
	}
}

func TestFitAlphaErrors(t *testing.T) {
	if _, _, err := FitAlpha([]int64{5}, 1); err == nil {
		t.Error("single sample must fail")
	}
	if _, _, err := FitAlpha([]int64{5, 6}, 0); err == nil {
		t.Error("xmin=0 must fail")
	}
	if _, _, err := FitAlpha([]int64{1, 2, 3}, 100); err == nil {
		t.Error("xmin above all samples must fail")
	}
}

func TestFitTailDetectsXMin(t *testing.T) {
	// Power law from xmin=4 with uniform noise below: the KS scan should
	// recover a cutoff near 4.
	rng := rand.New(rand.NewSource(11))
	s, err := NewSampler(2.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	samples := s.DrawN(rng, 20000)
	for i := 0; i < 8000; i++ {
		samples = append(samples, int64(rng.Intn(3))+1) // noise in {1,2,3}
	}
	fit, err := FitTail(samples)
	if err != nil {
		t.Fatal(err)
	}
	if fit.XMin < 3 || fit.XMin > 6 {
		t.Errorf("xmin=%d, want near 4 (%v)", fit.XMin, fit)
	}
	if math.Abs(fit.Alpha-2.5) > 0.12 {
		t.Errorf("alpha=%.3f, want near 2.5", fit.Alpha)
	}
}

func TestKSDistanceSmallForTrueModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, _ := NewSampler(2.4, 1)
	samples := s.DrawN(rng, 20000)
	ks := KSDistance(samples, 2.4, 1)
	// KS for n samples from the true model concentrates near 1/sqrt(n).
	if ks > 0.02 {
		t.Errorf("KS %.4f too large for true model", ks)
	}
	// And a badly wrong alpha must be visibly worse.
	if bad := KSDistance(samples, 4.0, 1); bad < 5*ks {
		t.Errorf("KS(alpha=4)=%.4f not clearly worse than KS(true)=%.4f", bad, ks)
	}
}

func TestKSDistanceEmptyTail(t *testing.T) {
	if ks := KSDistance([]int64{1, 2}, 2.5, 100); ks != 1 {
		t.Errorf("empty tail KS = %v, want 1", ks)
	}
}

func TestSamplerMeanMatchesZeta(t *testing.T) {
	// E[X] for the zeta distribution with xmin=1 is ζ(α−1)/ζ(α).
	rng := rand.New(rand.NewSource(5))
	alpha := 2.6
	s, _ := NewSampler(alpha, 1)
	n := 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(s.Draw(rng))
	}
	want := bound.PowerLawMeanDegree(alpha)
	got := sum / float64(n)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("sample mean %.3f, want %.3f (±5%%)", got, want)
	}
}

func TestSamplerValidation(t *testing.T) {
	if _, err := NewSampler(0.9, 1); err == nil {
		t.Error("alpha<=1 must fail")
	}
	if _, err := NewSampler(2.5, 0); err == nil {
		t.Error("xmin<1 must fail")
	}
}

func TestSamplerRespectsXMin(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s, _ := NewSampler(2.2, 7)
	for i := 0; i < 1000; i++ {
		if x := s.Draw(rng); x < 7 {
			t.Fatalf("sample %d below xmin 7", x)
		}
	}
}

func TestFitGraphOnRMAT(t *testing.T) {
	// RMAT graphs are the paper's skewed-graph stand-in; their degree tail
	// must fit a power law with α in the paper's skewed range (roughly 1.5–3.5
	// for Graph500 parameters) and a modest KS distance.
	g := gen.RMAT(13, 16, 42)
	fit, err := FitTail(degreesOf(g))
	if err != nil {
		t.Fatal(err)
	}
	if fit.Alpha < 1.2 || fit.Alpha > 4.0 {
		t.Errorf("RMAT alpha %.3f outside plausible skewed range (%v)", fit.Alpha, fit)
	}
	if fit.KS > 0.12 {
		t.Errorf("RMAT KS %.4f too large — tail is not power-law-ish (%v)", fit.KS, fit)
	}
}

func TestFitGraphRoadIsNotSkewed(t *testing.T) {
	// A road lattice has near-constant degree: its Gini must be far below an
	// RMAT graph's, and its fitted tail exponent far above the skewed range,
	// which is exactly why the paper treats the two families separately
	// (§7.7).
	road := gen.Road(64, 64, 1)
	rmat := gen.RMAT(12, 16, 1)
	fit, err := FitTail(degreesOf(road))
	if err != nil {
		t.Fatal(err)
	}
	if fit.Alpha <= 4.0 {
		t.Errorf("road alpha %.3f inside the skewed range (%v)", fit.Alpha, fit)
	}
	gRoad := NewHistogram(degreesOf(road)).Gini()
	gRMAT := NewHistogram(degreesOf(rmat)).Gini()
	if gRoad > 0.2 {
		t.Errorf("road Gini %.3f unexpectedly skewed", gRoad)
	}
	if gRMAT < gRoad+0.2 {
		t.Errorf("RMAT Gini %.3f not clearly above road %.3f", gRMAT, gRoad)
	}
}

func degreesOf(g interface {
	NumVertices() uint32
	Degree(uint32) int64
}) []int64 {
	out := make([]int64, 0, g.NumVertices())
	for v := uint32(0); v < g.NumVertices(); v++ {
		if d := g.Degree(v); d > 0 {
			out = append(out, d)
		}
	}
	return out
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram([]int64{1, 1, 2, 3, 3, 3, 0, -5})
	if h.Total != 6 {
		t.Fatalf("total %d, want 6 (non-positive dropped)", h.Total)
	}
	if h.Max() != 3 {
		t.Errorf("max %d", h.Max())
	}
	if got := h.Mean(); math.Abs(got-13.0/6) > 1e-12 {
		t.Errorf("mean %v", got)
	}
	ccdf := h.CCDF()
	if ccdf[0] != 1 {
		t.Errorf("CCDF at min value = %v, want 1", ccdf[0])
	}
	for i := 1; i < len(ccdf); i++ {
		if ccdf[i] > ccdf[i-1] {
			t.Errorf("CCDF not non-increasing at %d", i)
		}
	}
	if q := h.Quantile(1.0); q != 3 {
		t.Errorf("Quantile(1)=%d", q)
	}
	if q := h.Quantile(0.01); q != 1 {
		t.Errorf("Quantile(0.01)=%d", q)
	}
}

func TestHistogramGiniBounds(t *testing.T) {
	// Uniform degrees: Gini 0. One dominant value: Gini near 1.
	uniform := NewHistogram([]int64{5, 5, 5, 5})
	if g := uniform.Gini(); math.Abs(g) > 1e-9 {
		t.Errorf("uniform Gini %v, want 0", g)
	}
	skewed := make([]int64, 1000)
	for i := range skewed {
		skewed[i] = 1
	}
	skewed = append(skewed, 1_000_000)
	if g := NewHistogram(skewed).Gini(); g < 0.9 {
		t.Errorf("extreme-skew Gini %v, want > 0.9", g)
	}
}

func TestGiniInvariantUnderOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		a := make([]int64, len(raw))
		for i, x := range raw {
			a[i] = int64(x%100) + 1
		}
		g1 := NewHistogram(a).Gini()
		sort.Slice(a, func(i, j int) bool { return a[i] > a[j] })
		g2 := NewHistogram(a).Gini()
		return math.Abs(g1-g2) < 1e-9 && g1 >= -1e-12 && g1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFitTailErrors(t *testing.T) {
	if _, err := FitTail([]int64{1, 2, 3}); err == nil {
		t.Error("too few samples must fail")
	}
	same := make([]int64, 50)
	for i := range same {
		same[i] = 4
	}
	if _, err := FitTail(same); err == nil {
		t.Error("single distinct value must fail")
	}
}

// Sampler draws from the discrete power law Pr[x] ∝ x^(−α), x >= xmin, by
// inverse-CDF lookup over a precomputed table. The table covers all but
// ~1e-9 of the mass; the residual tail collapses onto the last table entry,
// which is beyond any realistic degree.
type Sampler struct {
	xmin int64
	cdf  []float64 // cdf[i] = P(X <= xmin+i)
}

// NewSampler builds a sampler for the discrete power law (alpha, xmin).
// alpha must exceed 1 for the distribution to normalize.
func NewSampler(alpha float64, xmin int64) (*Sampler, error) {
	if alpha <= 1 {
		return nil, fmt.Errorf("powerlaw: alpha must be > 1, got %g", alpha)
	}
	if xmin < 1 {
		return nil, fmt.Errorf("powerlaw: xmin must be >= 1, got %d", xmin)
	}
	z := bound.Zeta(alpha, float64(xmin))
	const maxTable = 1 << 22
	cdf := make([]float64, 0, 1024)
	cum := 0.0
	for i := 0; i < maxTable; i++ {
		x := float64(xmin + int64(i))
		cum += math.Pow(x, -alpha) / z
		cdf = append(cdf, cum)
		if 1-cum < 1e-9 {
			break
		}
	}
	return &Sampler{xmin: xmin, cdf: cdf}, nil
}

// Draw returns one sample.
func (s *Sampler) Draw(rng *rand.Rand) int64 {
	u := rng.Float64()
	i := sort.SearchFloat64s(s.cdf, u)
	if i >= len(s.cdf) {
		i = len(s.cdf) - 1
	}
	return s.xmin + int64(i)
}

// DrawN returns n samples.
func (s *Sampler) DrawN(rng *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = s.Draw(rng)
	}
	return out
}
