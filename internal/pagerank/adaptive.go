package pagerank

import (
	"math"

	"pagequality/internal/graph"
)

// AdaptiveOptions configures ComputeAdaptive, the adaptive power method of
// Kamvar, Haveliwala & Golub ("Adaptive methods for the computation of
// PageRank", reference [11] of the paper): pages whose value has already
// converged are frozen and their outgoing contributions reused, which
// skips most of the work in the tail of the iteration where only a few
// slow pages still move.
type AdaptiveOptions struct {
	// Tol, MaxIter as in Options (same defaults); the jump probability
	// and the normalisation are Options' defaults too.
	Tol     float64
	MaxIter int
}

// AdaptiveResult extends Result with adaptivity accounting.
type AdaptiveResult struct {
	Result
	// FrozenAt[i] is the iteration at which page i froze (0 if it never
	// froze before global convergence).
	FrozenAt []int
	// SkippedUpdates counts per-page update computations avoided.
	SkippedUpdates int64
}

// refreshPeriod unfreezes every page once every this many iterations,
// washing out the drift a permanently frozen page would accumulate while
// its upstream neighbours keep moving. Pages that are genuinely converged
// refreeze within one iteration.
const refreshPeriod = 10

// ComputeAdaptive runs the adaptive power iteration. It reaches the same
// fixed point as Compute (within tolerance) while skipping updates for
// frozen pages.
func ComputeAdaptive(c *graph.CSR, o AdaptiveOptions) (*AdaptiveResult, error) {
	n := c.NumNodes()
	opts := Options{Tol: o.Tol, MaxIter: o.MaxIter}
	if err := opts.fill(); err != nil {
		return nil, err
	}
	res := &AdaptiveResult{FrozenAt: make([]int, n)}
	if n == 0 {
		res.Converged = true
		return res, nil
	}
	// freezeTol is the per-page relative-change threshold below which a
	// page is declared converged and frozen.
	freezeTol := math.Max(opts.Tol/float64(n)*10, 1e-12)
	follow := 1 - opts.Jump
	total, base := opts.scale(n)

	cur := make([]float64, n)
	next := make([]float64, n)
	frozen := make([]bool, n)
	init := total / float64(n)
	for i := range cur {
		cur[i] = init
	}
	danglings := c.Danglings()

	for iter := 1; iter <= opts.MaxIter; iter++ {
		if iter%refreshPeriod == 0 {
			for i := range frozen {
				frozen[i] = false
			}
		}
		dmass := 0.0
		for _, d := range danglings {
			dmass += cur[d]
		}
		share := dmass / float64(n)

		delta := 0.0
		sumCur := 0.0
		for _, v := range cur {
			sumCur += v
		}
		sumNext := 0.0
		for i := 0; i < n; i++ {
			if frozen[i] {
				// Frozen pages keep their value; their out-contribution is
				// still read by neighbours via cur.
				next[i] = cur[i]
				sumNext += next[i]
				res.SkippedUpdates++
				continue
			}
			sum := share
			for _, j := range c.In(graph.NodeID(i)) {
				sum += cur[j] / float64(c.OutDegree(j))
			}
			next[i] = base + follow*sum
			sumNext += next[i]
		}
		for i := 0; i < n; i++ {
			d := math.Abs(next[i]/sumNext - cur[i]/sumCur)
			delta += d
			// Freeze pages whose relative movement is negligible.
			if !frozen[i] && cur[i] > 0 && math.Abs(next[i]-cur[i])/cur[i] < freezeTol {
				frozen[i] = true
				res.FrozenAt[i] = iter
			}
		}
		cur, next = next, cur
		res.Iterations = iter
		res.Delta = delta
		if delta < opts.Tol {
			res.Converged = true
			break
		}
	}
	sum := 0.0
	for _, v := range cur {
		sum += v
	}
	if sum > 0 {
		scale := total / sum
		for i := range cur {
			cur[i] *= scale
		}
	}
	res.Rank = cur
	return res, nil
}
