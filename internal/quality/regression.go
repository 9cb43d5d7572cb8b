package quality

import "fmt"

// EstimateWithRegression is the smoothed variant of the estimator that
// §9.1's statistical-noise discussion motivates: instead of the raw
// endpoint difference ΔPR = PR(t_k) − PR(t_1) — which a single noisy
// crawl can corrupt, and which is undefined for fluctuating pages — it
// fits a least-squares line through the page's whole popularity series
// and plugs the *fitted* endpoints into the paper's formula:
//
//	Q(p) = C · (P̂(t_k) - P̂(t_1)) / P̂(t_1) + PR(t_k)
//
// Fluctuating pages get a meaningful trend instead of the I := 0
// fallback, because the fit averages the fluctuation away. times[k] is
// the crawl time of ranks[k]; at least three snapshots are required (two
// points determine a line exactly, recovering the endpoint estimator).
func EstimateWithRegression(ranks [][]float64, times []float64, cfg Config) (*Result, error) {
	if len(ranks) < 3 {
		return nil, fmt.Errorf("%w: regression needs >= 3 snapshots, got %d", ErrBadInput, len(ranks))
	}
	if len(times) != len(ranks) {
		return nil, fmt.Errorf("%w: %d times for %d snapshots", ErrBadInput, len(times), len(ranks))
	}
	for k := 1; k < len(times); k++ {
		if times[k] <= times[k-1] {
			return nil, fmt.Errorf("%w: times not strictly increasing at %d", ErrBadInput, k)
		}
	}
	res, err := classifySeries(ranks, cfg)
	if err != nil {
		return nil, err
	}
	last := len(ranks) - 1

	// Precompute the time moments of the regression.
	k := float64(len(times))
	var sumT, sumTT float64
	for _, t := range times {
		sumT += t
		sumTT += float64(t * t)
	}
	den := float64(k*sumTT) - float64(sumT*sumT)

	for i := range res.Q {
		first := ranks[0][i]
		cur := ranks[last][i]
		if res.Class[i] == ClassStable || first <= 0 {
			res.Q[i] = cur
			continue
		}
		// Least-squares fit y = a + b·t over the page's series.
		var sumY, sumTY float64
		for kk, t := range times {
			y := ranks[kk][i]
			sumY += y
			sumTY += float64(t * y)
		}
		b := (float64(k*sumTY) - float64(sumT*sumY)) / den
		a := (sumY - float64(b*sumT)) / k
		fitFirst := a + float64(b*times[0])
		fitLast := a + float64(b*times[last])
		// A degenerate fit (the line crosses zero inside the window) falls
		// back to the current popularity, as the paper does for
		// unmeasurable trends; so does a decreasing page with the trend off.
		if fitFirst <= 0 || res.Class[i] == ClassDecreasing && !cfg.ApplyTrendToDecreasing {
			res.Q[i] = cur
			continue
		}
		res.Q[i] = cfg.equation1((fitLast-fitFirst)/fitFirst, cur)
	}
	return res, nil
}
