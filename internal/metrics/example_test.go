package metrics_test

import (
	"fmt"

	"pagequality/internal/metrics"
)

// The paper's evaluation in miniature: per-page relative errors of two
// predictors against the future PageRank, summarised and binned exactly
// like Figure 5.
func ExampleFigure5Histogram() {
	future := []float64{1.0, 2.0, 0.5, 4.0}
	estimate := []float64{0.9, 2.1, 0.8, 1.5}
	errs := make([]float64, len(future))
	for i := range future {
		e, err := metrics.RelativeError(estimate[i], future[i])
		if err != nil {
			panic(err)
		}
		errs[i] = e
	}
	h := metrics.Figure5Histogram()
	if err := h.AddAll(errs); err != nil {
		panic(err)
	}
	s, err := metrics.Summarize(errs)
	if err != nil {
		panic(err)
	}
	fmt.Printf("mean=%.3f first-bin=%.2f last-bin=%.2f\n",
		s.Mean, h.Fraction(0), h.Fraction(9))
	// Output:
	// mean=0.344 first-bin=0.50 last-bin=0.00
}

// Kendall tau compares two rankings of the same pages: +1 identical
// order, -1 reversed.
func ExampleKendallTau() {
	byQuality := []float64{0.9, 0.7, 0.5, 0.3}
	byPageRank := []float64{0.8, 0.9, 0.4, 0.2} // one pair swapped
	tau, err := metrics.KendallTau(byQuality, byPageRank)
	if err != nil {
		panic(err)
	}
	fmt.Printf("tau = %.3f\n", tau)
	// Output:
	// tau = 0.667
}
