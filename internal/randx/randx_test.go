package randx

import (
	"math"
	"testing"
)

func TestStreamDeterministic(t *testing.T) {
	a := NewStream(1, 7, 3)
	b := NewStream(1, 7, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same key diverged at draw %d", i)
		}
	}
}

func TestKeyDistinctAndStable(t *testing.T) {
	// FNV-1a of the empty string is the offset basis; a few known-distinct
	// inputs must neither collide nor vary between calls.
	if Key("") != 14695981039346656037 {
		t.Fatalf("Key(\"\") = %d", Key(""))
	}
	inputs := []string{"a", "b", "ab", "ba", "http://x/p/1.html", "http://x/p/2.html"}
	seen := make(map[uint64]string)
	for _, s := range inputs {
		k := Key(s)
		if k != Key(s) {
			t.Fatalf("Key(%q) unstable", s)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("Key collision between %q and %q", prev, s)
		}
		seen[k] = s
	}
}

func TestStreamKeySeparation(t *testing.T) {
	// Neighbouring keys, swapped components, and different seeds must all
	// start distinct sequences.
	variants := []Stream{
		NewStream(1, 7, 3),
		NewStream(1, 8, 3),
		NewStream(1, 7, 4),
		NewStream(1, 3, 7), // key/tick transposed
		NewStream(2, 7, 3),
	}
	firsts := make(map[uint64]int)
	for i := range variants {
		v := variants[i].Uint64()
		if prev, dup := firsts[v]; dup {
			t.Fatalf("streams %d and %d share their first draw", prev, i)
		}
		firsts[v] = i
	}
}

// Chi-squared uniformity of the stream's Float64 output: 64 buckets,
// 64_000 draws, df = 63. The 99.9th percentile of chi2(63) is 103.4; the
// run is deterministic, so a pass is stable.
func TestStreamUniformityChiSquared(t *testing.T) {
	s := NewStream(42, 0, 0)
	const buckets = 64
	const n = 64_000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[int(Float64(&s)*buckets)]++
	}
	expected := float64(n) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 103.4 {
		t.Fatalf("chi-squared %.1f exceeds the 99.9%% critical value 103.4", chi2)
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	s := NewStream(5, 0, 0)
	var seen [7]bool
	for i := 0; i < 1000; i++ {
		v := Intn(&s, 7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("Intn(7) never produced %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	Intn(&s, 0)
}

func TestNormFloat64Moments(t *testing.T) {
	s := NewStream(9, 0, 0)
	const trials = 200_000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		x := NormFloat64(&s)
		sum += x
		sumSq += x * x
	}
	mean := sum / trials
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean %g, want ~0", mean)
	}
	if v := sumSq/trials - mean*mean; math.Abs(v-1) > 0.02 {
		t.Fatalf("normal variance %g, want ~1", v)
	}
}

// checkMoments draws trials variates and asserts the sample mean and
// variance against the distribution's analytic moments, with tolerances
// scaled to the sampling error of the (deterministic) run.
func checkMoments(t *testing.T, name string, draw func() float64, wantMean, wantVar, tolMean, tolVar float64) {
	t.Helper()
	const trials = 200_000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		x := draw()
		sum += x
		sumSq += x * x
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean-wantMean) > tolMean {
		t.Fatalf("%s: mean %g, want %g ± %g", name, mean, wantMean, tolMean)
	}
	if math.Abs(variance-wantVar) > tolVar {
		t.Fatalf("%s: variance %g, want %g ± %g", name, variance, wantVar, tolVar)
	}
}

// The Poisson sampler switches algorithms at λ = 30; both regimes — and
// in particular the first λ past the cutoff, where an approximation error
// would be largest — must reproduce the analytic mean and variance (= λ).
func TestPoissonMomentsAcrossCutoff(t *testing.T) {
	for _, lambda := range []float64{0.5, 5, 29.5, 30.5, 80} {
		s := NewStream(11, uint64(lambda*10), 0)
		checkMoments(t, "poisson", func() float64 {
			return float64(Poisson(&s, lambda))
		}, lambda, lambda, 0.02*lambda+0.02, 0.05*lambda+0.05)
	}
}

// The binomial sampler switches at n = 50 trials; validate the moments
// np and np(1-p) on both sides of the cutoff.
func TestBinomialMomentsAcrossCutoff(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{10, 0.3}, {49, 0.5}, {51, 0.5}, {400, 0.1}} {
		s := NewStream(13, uint64(tc.n), 0)
		wantMean := float64(tc.n) * tc.p
		wantVar := wantMean * (1 - tc.p)
		checkMoments(t, "binomial", func() float64 {
			return float64(Binomial(&s, tc.n, tc.p))
		}, wantMean, wantVar, 0.02*wantMean+0.02, 0.05*wantVar+0.05)
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	s := NewStream(1, 0, 0)
	if Binomial(&s, 0, 0.5) != 0 || Binomial(&s, -1, 0.5) != 0 {
		t.Fatal("binomial n<=0 wrong")
	}
	if Binomial(&s, 10, 0) != 0 {
		t.Fatal("binomial p=0 wrong")
	}
	if Binomial(&s, 10, 1) != 10 {
		t.Fatal("binomial p=1 wrong")
	}
	for i := 0; i < 1000; i++ {
		if v := Binomial(&s, 1000, 0.3); v < 0 || v > 1000 {
			t.Fatalf("binomial out of range: %d", v)
		}
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	s := NewStream(2, 0, 0)
	if Poisson(&s, 0) != 0 || Poisson(&s, -3) != 0 {
		t.Fatal("poisson lambda<=0 wrong")
	}
	for i := 0; i < 1000; i++ {
		if v := Poisson(&s, 1e6); v < 0 {
			t.Fatalf("huge-lambda poisson negative: %d", v)
		}
	}
}

// TestSamplersStayInRange: a Poisson draw at MaxMean, or past it, lands in
// [0, MaxMean], and half the draws at MaxMean cross it before the clamp. A
// binomial draw at n = MaxMean and p near 1 lands in [0, n] although its
// normal approximation crosses n often; on a 32-bit platform such a draw
// used to overflow the int conversion and come back as 0 or negative.
func TestSamplersStayInRange(t *testing.T) {
	s := NewStream(3, 0, 0)
	atBound := 0
	for _, lambda := range []float64{MaxMean, 1e300, math.Inf(1)} {
		for i := 0; i < 1000; i++ {
			v := Poisson(&s, lambda)
			if v < 0 || v > MaxMean {
				t.Fatalf("Poisson(%g) = %d outside [0, %d]", lambda, v, MaxMean)
			}
			if v == MaxMean {
				atBound++
			}
		}
	}
	if atBound < 2000 {
		t.Fatalf("%d of 3000 draws at or past the bound clamped to it", atBound)
	}
	if v := Poisson(&s, math.NaN()); v != 0 {
		t.Fatalf("Poisson(NaN) = %d, want 0", v)
	}
	const n = MaxMean
	for i := 0; i < 1000; i++ {
		if v := Binomial(&s, n, 1-1e-9); v < n-100 || v > n {
			t.Fatalf("Binomial(%d, 1-1e-9) = %d outside [%d, %d]", n, v, n-100, n)
		}
	}
}

func TestBetaMoments(t *testing.T) {
	a, b := 2.0, 3.0
	s := NewStream(3, 0, 0)
	wantMean := a / (a + b)
	wantVar := a * b / ((a + b) * (a + b) * (a + b + 1))
	checkMoments(t, "beta", func() float64 {
		x := Beta(&s, a, b)
		if x < 0 || x > 1 {
			t.Fatalf("beta sample %g outside [0,1]", x)
		}
		return x
	}, wantMean, wantVar, 0.01, 0.005)
}

// Gamma is exercised in both the shape >= 1 regime and the boosted
// shape < 1 regime.
func TestGammaMoments(t *testing.T) {
	for _, shape := range []float64{0.5, 2.5} {
		s := NewStream(4, uint64(shape*10), 0)
		checkMoments(t, "gamma", func() float64 {
			return Gamma(&s, shape)
		}, shape, shape, 0.02*shape+0.02, 0.08*shape+0.05)
	}
}

func BenchmarkStreamUint64(b *testing.B) {
	s := NewStream(1, 2, 3)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
}

func BenchmarkPoissonSmallLambda(b *testing.B) {
	s := NewStream(1, 2, 3)
	for i := 0; i < b.N; i++ {
		Poisson(&s, 3.5)
	}
}

func BenchmarkPoissonLargeLambda(b *testing.B) {
	s := NewStream(1, 2, 3)
	for i := 0; i < b.N; i++ {
		Poisson(&s, 500)
	}
}

// BenchmarkBinomialExact times the exact Bernoulli loop below the n = 50
// cutoff: forty trials, one uniform each.
func BenchmarkBinomialExact(b *testing.B) {
	s := NewStream(1, 2, 3)
	for i := 0; i < b.N; i++ {
		Binomial(&s, 40, 0.4)
	}
}
