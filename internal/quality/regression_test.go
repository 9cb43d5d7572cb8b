package quality

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestRegressionValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := EstimateWithRegression([][]float64{{1}, {1}}, []float64{0, 1}, cfg); !errors.Is(err, ErrBadInput) {
		t.Fatal("two snapshots accepted")
	}
	r3 := [][]float64{{1}, {2}, {3}}
	if _, err := EstimateWithRegression(r3, []float64{0, 1}, cfg); !errors.Is(err, ErrBadInput) {
		t.Fatal("times length mismatch accepted")
	}
	if _, err := EstimateWithRegression(r3, []float64{0, 1, 1}, cfg); !errors.Is(err, ErrBadInput) {
		t.Fatal("non-increasing times accepted")
	}
	if _, err := EstimateWithRegression([][]float64{{1}, {1, 2}, {1}}, []float64{0, 1, 2}, cfg); !errors.Is(err, ErrBadInput) {
		t.Fatal("ragged snapshots accepted")
	}
}

func TestRegressionMatchesEndpointOnPerfectLine(t *testing.T) {
	// A perfectly linear series: regression and endpoint estimators agree.
	times := []float64{0, 4, 8}
	ranks := [][]float64{{1.0}, {1.2}, {1.4}}
	cfg := Config{C: 0.5, MinChangeFrac: 0.05, ApplyTrendToDecreasing: true}
	reg, err := EstimateWithRegression(ranks, times, cfg)
	if err != nil {
		t.Fatal(err)
	}
	end, err := EstimateFromSeries(ranks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(reg.Q[0]-end.Q[0]) > 1e-12 {
		t.Fatalf("regression %g != endpoint %g on a perfect line", reg.Q[0], end.Q[0])
	}
}

func TestRegressionSmoothsFluctuation(t *testing.T) {
	// A page trending upward with one noisy dip: the endpoint estimator
	// classifies it fluctuating (I := 0) and loses the trend; regression
	// recovers it.
	times := []float64{0, 2, 4, 6}
	ranks := [][]float64{{1.0}, {1.25}, {1.15}, {1.5}}
	cfg := Config{C: 1.0, MinChangeFrac: 0.05, ApplyTrendToDecreasing: true}
	end, err := EstimateFromSeries(ranks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if end.Class[0] != ClassFluctuating {
		t.Fatalf("fixture broken: class %v", end.Class[0])
	}
	if end.Q[0] != 1.5 {
		t.Fatalf("endpoint fallback = %g, want current 1.5", end.Q[0])
	}
	reg, err := EstimateWithRegression(ranks, times, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Q[0] <= 1.5 {
		t.Fatalf("regression did not recover the upward trend: %g", reg.Q[0])
	}
}

func TestRegressionStableAndDegenerate(t *testing.T) {
	times := []float64{0, 1, 2}
	cfg := DefaultConfig()
	// Stable page: current popularity.
	res, err := EstimateWithRegression([][]float64{{2.0}, {2.01}, {2.02}}, times, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class[0] != ClassStable || res.Q[0] != 2.02 {
		t.Fatalf("stable handling: %v %g", res.Class[0], res.Q[0])
	}
	// Zero baseline: falls back to current.
	res, err = EstimateWithRegression([][]float64{{0}, {1}, {2}}, times, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Q[0] != 2 {
		t.Fatalf("zero-baseline fallback = %g", res.Q[0])
	}
	// Fit crossing zero at t0 (steep collapse): falls back to current.
	res, err = EstimateWithRegression([][]float64{{4}, {1.5}, {0.1}}, times,
		Config{C: 1, MinChangeFrac: 0.05, ApplyTrendToDecreasing: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Q[0] < 0 {
		t.Fatalf("negative estimate %g", res.Q[0])
	}
}

func TestRegressionTrendCapAndDecreasingPolicy(t *testing.T) {
	times := []float64{0, 1, 2}
	up := [][]float64{{0.1}, {1.0}, {1.9}} // +1800% trend
	cfg := Config{C: 1, MinChangeFrac: 0.05, ApplyTrendToDecreasing: true, MaxTrend: 0.5}
	res, err := EstimateWithRegression(up, times, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Q[0], 1.9+0.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("capped estimate = %g, want %g", got, want)
	}
	down := [][]float64{{2.0}, {1.5}, {1.0}}
	cfg = Config{C: 1, MinChangeFrac: 0.05, ApplyTrendToDecreasing: false}
	res, err = EstimateWithRegression(down, times, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Q[0] != 1.0 {
		t.Fatalf("decreasing page with trend off = %g, want 1.0", res.Q[0])
	}
}

// TestEstimatorsShareClassification: the two estimators differ only in the
// trend they plug into Equation 1, never in what they report as changed.
// Random series mix zero entries in, so some pages are born during the
// window (0 → positive), which Result.Changed counts as changed.
func TestEstimatorsShareClassification(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const pages = 500
	times := []float64{0, 1, 3, 4}
	ranks := make([][]float64, len(times))
	for k := range ranks {
		ranks[k] = make([]float64, pages)
		for i := range ranks[k] {
			if rng.Intn(4) > 0 {
				ranks[k][i] = rng.Float64()
			}
		}
	}
	cfg := DefaultConfig()
	end, err := EstimateFromSeries(ranks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := EstimateWithRegression(ranks, times, cfg)
	if err != nil {
		t.Fatal(err)
	}
	born := 0
	for i := 0; i < pages; i++ {
		if ranks[0][i] <= 0 && ranks[len(times)-1][i] > 0 {
			born++
		}
		if end.Class[i] != reg.Class[i] || end.Changed[i] != reg.Changed[i] {
			t.Fatalf("page %d %v: endpoint (%v, changed %v), regression (%v, changed %v)", i,
				[]float64{ranks[0][i], ranks[1][i], ranks[2][i], ranks[3][i]},
				end.Class[i], end.Changed[i], reg.Class[i], reg.Changed[i])
		}
	}
	if born == 0 {
		t.Fatal("fixture has no born pages")
	}
	if end.NumChanged != reg.NumChanged || !reflect.DeepEqual(end.Counts, reg.Counts) {
		t.Fatalf("endpoint %d changed %v, regression %d changed %v",
			end.NumChanged, end.Counts, reg.NumChanged, reg.Counts)
	}
}

// On a noisy synthetic series, the regression estimator predicts the
// future value at least as well as the endpoint estimator on average.
func TestRegressionBeatsEndpointUnderNoise(t *testing.T) {
	// Five noisy crawls of pages with genuine linear trends. The endpoint
	// estimator (a) only sees two of the five observations and (b) drops
	// to the I := 0 fallback for the many pages that noise makes
	// non-monotone; the least-squares fit uses every crawl.
	rng := rand.New(rand.NewSource(4))
	const pages = 2000
	times := []float64{0, 2, 4, 6, 8}
	future := make([]float64, pages)
	ranks := make([][]float64, len(times))
	for k := range ranks {
		ranks[k] = make([]float64, pages)
	}
	for i := 0; i < pages; i++ {
		base := 0.8 + 0.4*rng.Float64()
		slope := (rng.Float64() - 0.25) * 0.04 // mostly rising, up to +0.03/wk
		for k, tt := range times {
			noise := rng.NormFloat64() * 0.05
			v := base + slope*tt + noise
			if v < 0.05 {
				v = 0.05
			}
			ranks[k][i] = v
		}
		f := base + slope*26
		if f < 0.05 {
			f = 0.05
		}
		future[i] = f
	}
	cfg := Config{C: 2.25, MinChangeFrac: 0.05, ApplyTrendToDecreasing: true, MaxTrend: 1}
	end, err := EstimateFromSeries(ranks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := EstimateWithRegression(ranks, times, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var errEnd, errReg float64
	n := 0
	for i := 0; i < pages; i++ {
		if !end.Changed[i] {
			continue
		}
		errEnd += math.Abs(end.Q[i]-future[i]) / future[i]
		errReg += math.Abs(reg.Q[i]-future[i]) / future[i]
		n++
	}
	if n < 500 {
		t.Fatalf("only %d changed pages", n)
	}
	if errReg >= errEnd {
		t.Fatalf("regression %.4f not below endpoint %.4f under noise", errReg/float64(n), errEnd/float64(n))
	}
}
