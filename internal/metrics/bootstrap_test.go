package metrics

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestBootstrapMeanCIBasics: paired with zeros, the interval is the
// bootstrap interval of a sample's mean.
func TestBootstrapMeanCIBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = 2 + rng.NormFloat64()
	}
	lo, hi, err := BootstrapMeanDiffCI(xs, make([]float64, len(xs)))
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if !(lo < mean && mean < hi) {
		t.Fatalf("CI [%g, %g] does not contain the sample mean %g", lo, hi, mean)
	}
	// Roughly ±1.96/sqrt(500) ≈ ±0.088 for unit-variance data.
	width := hi - lo
	if width < 0.1 || width > 0.3 {
		t.Fatalf("CI width %g implausible for n=500, sd~1", width)
	}
	// The true mean (2) should be inside too.
	if !(lo < 2 && 2 < hi) {
		t.Fatalf("CI [%g, %g] excludes the true mean", lo, hi)
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	zeros := make([]float64, len(xs))
	lo1, hi1, err := BootstrapMeanDiffCI(xs, zeros)
	if err != nil {
		t.Fatal(err)
	}
	lo2, hi2, err := BootstrapMeanDiffCI(xs, zeros)
	if err != nil {
		t.Fatal(err)
	}
	if lo1 != lo2 || hi1 != hi2 { //pqlint:allow floateq the fixed-seed bootstrap must reproduce the interval bit-for-bit
		t.Fatal("the same samples gave different intervals")
	}
}

func TestBootstrapWidthShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	large := make([]float64, 4000)
	for i := range large {
		large[i] = rng.NormFloat64()
	}
	small := large[:100]
	loS, hiS, err := BootstrapMeanDiffCI(small, make([]float64, len(small)))
	if err != nil {
		t.Fatal(err)
	}
	loL, hiL, err := BootstrapMeanDiffCI(large, make([]float64, len(large)))
	if err != nil {
		t.Fatal(err)
	}
	if hiL-loL >= hiS-loS {
		t.Fatalf("CI did not shrink with n: %g vs %g", hiL-loL, hiS-loS)
	}
}

func TestBootstrapValidation(t *testing.T) {
	if _, _, err := BootstrapMeanDiffCI(nil, nil); !errors.Is(err, ErrBadInput) {
		t.Fatal("empty sample accepted")
	}
}

func TestBootstrapMeanDiffCI(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 800
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		common := rng.NormFloat64() // pairing correlation
		a[i] = 1.0 + common + 0.2*rng.NormFloat64()
		b[i] = 1.3 + common + 0.2*rng.NormFloat64()
	}
	lo, hi, err := BootstrapMeanDiffCI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// True difference -0.3: the interval must exclude zero and contain it.
	if hi >= 0 {
		t.Fatalf("CI [%g, %g] does not exclude zero", lo, hi)
	}
	if !(lo < -0.3 && -0.3 < hi) {
		t.Fatalf("CI [%g, %g] excludes the true difference -0.3", lo, hi)
	}
	if math.Abs(hi-lo) > 0.1 {
		t.Fatalf("paired CI suspiciously wide: %g", hi-lo)
	}
	if _, _, err := BootstrapMeanDiffCI(a, b[:10]); !errors.Is(err, ErrBadInput) {
		t.Fatal("unpaired lengths accepted")
	}
}
