package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Gini computes the Gini coefficient of a non-negative sample: 0 for a
// perfectly equal distribution, approaching 1 as a single entry holds
// everything. It is the popularity-bias number of the search-feedback
// literature (Fortunato/Menczer's "egalitarian effect of search engines"
// argues over exactly this statistic): a ranking policy that concentrates
// attention on already-popular pages drives the popularity Gini up, a
// policy that spreads attention drives it down.
//
// The input is copied and sorted, so the caller's slice is untouched; the
// accumulation runs in sorted order, making the result independent of the
// input permutation (bitwise, the randx discipline).
func Gini(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("%w: empty sample", ErrBadInput)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if sorted[0] < 0 || math.IsNaN(sorted[len(sorted)-1]) {
		return 0, fmt.Errorf("%w: Gini needs non-negative values", ErrBadInput)
	}
	n := float64(len(sorted))
	var sum, weighted float64
	for i, x := range sorted {
		sum += x
		weighted += float64(float64(i+1) * x)
	}
	if sum == 0 {
		return 0, nil // everyone equally has nothing
	}
	return 2*weighted/(n*sum) - (n+1)/n, nil
}
