package quality

import "fmt"

// Live applies the paper's estimator (Equation 1) between two successive
// PageRank vectors of a *live* graph — the form the search-in-the-loop
// corpus uses at every index refresh, where the only history available is
// the previous refresh's vector. prev may be shorter than cur (pages are
// only ever born, never deleted); the missing entries are treated as
// popularity 0, so newly born pages degenerate to their current PageRank
// exactly as 0→positive pages do in EstimateFromSeries. A nil prev (the
// first refresh, no history yet) returns cur unchanged.
//
// The classification, change filter, trend cap and negative clamp are the
// ones of EstimateFromSeries with a two-snapshot window, so the live
// estimate and the snapshot-series estimate cannot drift apart.
//
// No code in the module calls Live: the searched corpus's refresh pads
// and calls EstimateFromSeries itself. The benchmark's workload table
// (cmd/bench/README.md) still names it, so it goes with the next change
// to the benchmark.
func Live(prev, cur []float64, cfg Config) ([]float64, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if prev == nil {
		return append([]float64(nil), cur...), nil
	}
	if len(prev) > len(cur) {
		return nil, fmt.Errorf("%w: prev has %d pages, cur only %d (pages are never deleted)",
			ErrBadInput, len(prev), len(cur))
	}
	if len(prev) < len(cur) {
		padded := make([]float64, len(cur))
		copy(padded, prev)
		prev = padded
	}
	res, err := EstimateFromSeries([][]float64{prev, cur}, cfg)
	if err != nil {
		return nil, err
	}
	return res.Q, nil
}
