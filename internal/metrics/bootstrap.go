package metrics

import (
	"fmt"
	"math/rand"
	"sort"
)

// BootstrapMeanCI computes a percentile-bootstrap confidence interval for
// the mean of xs: resamples with replacement, takes the empirical
// (1-confidence)/2 and (1+confidence)/2 quantiles of the resampled means.
// The seed makes the interval reproducible. Used to attach uncertainty to
// the headline error averages, which the paper reports as bare numbers.
func BootstrapMeanCI(xs []float64, resamples int, confidence float64, seed int64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("%w: empty sample", ErrBadInput)
	}
	if resamples < 10 {
		return 0, 0, fmt.Errorf("%w: resamples=%d too few", ErrBadInput, resamples)
	}
	if confidence <= 0 || confidence >= 1 {
		return 0, 0, fmt.Errorf("%w: confidence=%g outside (0,1)", ErrBadInput, confidence)
	}
	rng := rand.New(rand.NewSource(seed))
	n := len(xs)
	means := make([]float64, resamples)
	for b := 0; b < resamples; b++ {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += xs[rng.Intn(n)]
		}
		means[b] = sum / float64(n)
	}
	sort.Float64s(means)
	alpha := float64((1 - confidence) / 2)
	lo = quantileSorted(means, alpha)
	hi = quantileSorted(means, 1-alpha)
	return lo, hi, nil
}

// BootstrapMeanDiffCI bootstraps the confidence interval of mean(a)-mean(b)
// for *paired* samples (a[i] and b[i] measured on the same page, as the
// per-page errors of the two estimators are). If the interval excludes
// zero, the difference is significant at the given confidence.
func BootstrapMeanDiffCI(a, b []float64, resamples int, confidence float64, seed int64) (lo, hi float64, err error) {
	if len(a) != len(b) {
		return 0, 0, fmt.Errorf("%w: paired samples of different lengths %d != %d", ErrBadInput, len(a), len(b))
	}
	diffs := make([]float64, len(a))
	for i := range a {
		diffs[i] = a[i] - b[i]
	}
	return BootstrapMeanCI(diffs, resamples, confidence, seed)
}
