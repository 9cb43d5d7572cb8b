package pagerank

import (
	"math"

	"pagequality/internal/graph"
)

// ComputeReference is the retained naive PageRank implementation: a
// serial loop with a float division per edge and separate full-vector
// passes for the dangling-mass, vector-sum and delta bookkeeping that
// Compute fuses into its sweeps. It is kept as the correctness oracle for
// the kernel (see TestKernelsMatchReference) and as the "before" side of
// BenchmarkPageRankKernel. It accepts the same Options (Workers is
// ignored) and converges to the same fixed point as Compute.
func ComputeReference(c *graph.CSR, opts Options) (*Result, error) {
	n := c.NumNodes()
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if n == 0 {
		return &Result{Rank: nil, Converged: true}, nil
	}

	danglings := c.Danglings()

	// Base (the jump term) and scale depend on the variant. Both variants
	// share one iteration operating on an arbitrary-scale vector;
	// convergence is measured after scaling to sum 1.
	follow := 1 - opts.Jump
	total := 1.0
	base := opts.Jump / float64(n)
	if opts.Variant == VariantPaper {
		total = float64(n)
		base = opts.Jump
	}

	cur := make([]float64, n)
	next := make([]float64, n)
	init := total / float64(n)
	for i := range cur {
		cur[i] = init
	}

	var prev1, prev2 []float64
	if opts.Extrapolate {
		prev1 = make([]float64, n)
		prev2 = make([]float64, n)
	}

	res := &Result{}
	for iter := 1; iter <= opts.MaxIter; iter++ {
		// Mass sitting on dangling pages this round.
		dmass := 0.0
		for _, d := range danglings {
			dmass += cur[d]
		}

		// A page with no outgoing link links to every page.
		share := dmass / float64(n)

		for i := range next {
			sum := share
			for _, j := range c.In(graph.NodeID(i)) {
				sum += cur[j] / float64(c.OutDegree(j))
			}
			next[i] = base + follow*sum
		}

		// L1 delta on the sum-1 normalised vectors.
		sumNext := 0.0
		for _, v := range next {
			sumNext += v
		}
		delta := 0.0
		sumCur := 0.0
		for _, v := range cur {
			sumCur += v
		}
		for i := range next {
			delta += math.Abs(next[i]/sumNext - cur[i]/sumCur)
		}
		res.Iterations = iter
		res.Delta = delta

		cur, next = next, cur
		if delta < opts.Tol {
			res.Converged = true
			break
		}

		if opts.Extrapolate && iter >= 3 && iter%extrapolatePeriod == 0 {
			aitken(cur, prev1, prev2)
		}
		if opts.Extrapolate {
			prev2, prev1 = prev1, prev2
			copy(prev1, cur)
		}
	}

	// Rescale to the variant's convention (sum = total).
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
