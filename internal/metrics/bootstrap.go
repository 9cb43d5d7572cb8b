package metrics

import (
	"fmt"
	"math/rand"
	"sort"
)

// The headline's bootstrap: 2,000 resamples for a 95% interval, from a
// fixed seed so that the committed report reproduces it. The confidence
// is typed so that each tail's share (1-c)/2 is computed from the
// float64 nearest 0.95, not exactly: the two differ in the last bits.
const (
	bootstrapResamples          = 2000
	bootstrapConfidence float64 = 0.95
	bootstrapSeed               = 1
)

// BootstrapMeanDiffCI computes a 95% percentile-bootstrap confidence
// interval of mean(a)-mean(b) for *paired* samples (a[i] and b[i]
// measured on the same page, as the per-page errors of the two
// estimators are): it resamples the differences a[i]-b[i] with
// replacement 2,000 times and takes the empirical 2.5% and 97.5%
// quantiles of the resampled means. If the interval excludes zero, the
// difference is significant at 95%. It attaches uncertainty to the
// headline error averages, which the paper reports as bare numbers.
func BootstrapMeanDiffCI(a, b []float64) (lo, hi float64, err error) {
	if len(a) != len(b) {
		return 0, 0, fmt.Errorf("%w: paired samples of different lengths %d != %d", ErrBadInput, len(a), len(b))
	}
	if len(a) == 0 {
		return 0, 0, fmt.Errorf("%w: empty sample", ErrBadInput)
	}
	diffs := make([]float64, len(a))
	for i := range a {
		diffs[i] = a[i] - b[i]
	}
	rng := rand.New(rand.NewSource(bootstrapSeed))
	n := len(diffs)
	means := make([]float64, bootstrapResamples)
	for r := range means {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += diffs[rng.Intn(n)]
		}
		means[r] = sum / float64(n)
	}
	sort.Float64s(means)
	alpha := float64((1 - bootstrapConfidence) / 2)
	return quantileSorted(means, alpha), quantileSorted(means, 1-alpha), nil
}
