package pagerank

import (
	"math"

	"pagequality/internal/graph"
)

// HITSResult carries the hub and authority vectors of Kleinberg's HITS
// algorithm [13], the main link-based alternative to PageRank discussed in
// the paper's related work.
type HITSResult struct {
	// Hubs scores pages by how well they point at good authorities.
	Hubs []float64
	// Authorities scores pages by how well good hubs point at them.
	Authorities []float64
	// Iterations performed and whether the L1 deltas converged.
	Iterations int
	Converged  bool
}

const (
	hitsTol     = 1e-9 // L1 convergence threshold
	hitsMaxIter = 100
)

// HITS runs the hub/authority mutual-reinforcement iteration on c with
// L2 normalisation per step.
func HITS(c *graph.CSR) *HITSResult {
	n := c.NumNodes()
	res := &HITSResult{
		Hubs:        make([]float64, n),
		Authorities: make([]float64, n),
	}
	if n == 0 {
		res.Converged = true
		return res
	}
	h := res.Hubs
	a := res.Authorities
	for i := range h {
		h[i] = 1
		a[i] = 1
	}
	prevA := make([]float64, n)
	prevH := make([]float64, n)
	for iter := 1; iter <= hitsMaxIter; iter++ {
		copy(prevA, a)
		copy(prevH, h)
		// a = Eᵀ h
		for i := 0; i < n; i++ {
			sum := 0.0
			for _, j := range c.In(graph.NodeID(i)) {
				sum += h[j]
			}
			a[i] = sum
		}
		normalizeL2(a)
		// h = E a
		for i := 0; i < n; i++ {
			sum := 0.0
			for _, j := range c.Out(graph.NodeID(i)) {
				sum += a[j]
			}
			h[i] = sum
		}
		normalizeL2(h)
		res.Iterations = iter
		if l1(a, prevA)+l1(h, prevH) < hitsTol {
			res.Converged = true
			break
		}
	}
	return res
}

func normalizeL2(v []float64) {
	sum := 0.0
	for _, x := range v {
		sum += x * x
	}
	if sum == 0 {
		return
	}
	inv := 1 / math.Sqrt(sum)
	for i := range v {
		v[i] *= inv
	}
}

func l1(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}
