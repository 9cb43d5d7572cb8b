// Package model implements the paper's user-visitation model (Sections 6
// and 7): the closed-form popularity evolution of Theorem 1, user awareness
// (Lemma 2), the relative popularity increase I(p,t), and the exact quality
// identity Q(p) = I(p,t) + P(p,t) of Theorem 2. It also provides a
// general-purpose RK4 integrator used to cross-check the closed forms and
// to solve the forgetting extension of §9.1, and the life-stage
// classification of Figure 1 (infant / expansion / maturity).
package model

import (
	"errors"
	"fmt"
	"math"
)

// Params are the model parameters of Table 1.
type Params struct {
	// Q is the page quality Q(p) ∈ (0, 1]: the probability that a user who
	// discovers the page likes it enough to link to it (Definition 1).
	Q float64
	// N is the total number of Web users (n in the paper).
	N float64
	// R is the normalisation constant of Proposition 1: V(p,t) = r·P(p,t)
	// visits per unit time.
	R float64
	// P0 is the popularity at the page's creation time, P(p,0) ∈ (0, Q].
	P0 float64
}

// ErrBadParams reports invalid model parameters.
var ErrBadParams = errors.New("model: bad params")

// Validate checks the parameters are inside the model's domain.
func (p Params) Validate() error {
	switch {
	case !(p.Q > 0 && p.Q <= 1):
		return fmt.Errorf("%w: Q=%g outside (0,1]", ErrBadParams, p.Q)
	case !(p.N > 0):
		return fmt.Errorf("%w: N=%g must be positive", ErrBadParams, p.N)
	case !(p.R > 0):
		return fmt.Errorf("%w: R=%g must be positive", ErrBadParams, p.R)
	case !(p.P0 > 0):
		return fmt.Errorf("%w: P0=%g must be positive", ErrBadParams, p.P0)
	case p.P0 > p.Q:
		return fmt.Errorf("%w: P0=%g exceeds Q=%g (popularity cannot exceed quality)", ErrBadParams, p.P0, p.Q)
	}
	return nil
}

// rate is the logistic growth rate (r/n)·Q of Theorem 1.
func (p Params) rate() float64 { return p.R / p.N * p.Q }

// PopularityAt evaluates Theorem 1:
//
//	P(p,t) = Q / (1 + [Q/P(p,0) - 1] · e^(-(r/n)Q·t))
func (p Params) PopularityAt(t float64) float64 {
	c := p.Q/p.P0 - 1
	return p.Q / (1 + float64(c*math.Exp(-p.rate()*t)))
}

// AwarenessAt evaluates the user awareness A(p,t) = P(p,t)/Q (Lemma 1).
func (p Params) AwarenessAt(t float64) float64 {
	return p.PopularityAt(t) / p.Q
}

// Derivative evaluates dP(p,t)/dt analytically. Differentiating Theorem 1
// recovers the Verhulst form dP/dt = (r/n) · P · (Q - P).
func (p Params) Derivative(t float64) float64 {
	pt := p.PopularityAt(t)
	return p.R / p.N * pt * (p.Q - pt)
}

// RelativeIncrease evaluates I(p,t) = (n/r) · (dP/dt) / P (Table 1).
// Under the model this equals Q - P(p,t) exactly, which is what Theorem 2
// exploits.
func (p Params) RelativeIncrease(t float64) float64 {
	return p.N / p.R * p.Derivative(t) / p.PopularityAt(t)
}

// EstimateQ evaluates the quality estimator of Theorem 2,
// Q(p,t) = I(p,t) + P(p,t). Under the model it equals Q for every t.
func (p Params) EstimateQ(t float64) float64 {
	return p.RelativeIncrease(t) + p.PopularityAt(t)
}

// TimeToReach returns the time at which the popularity first reaches the
// given value target ∈ (P0, Q), by inverting Theorem 1. It returns an
// error when the target is outside the reachable range.
func (p Params) TimeToReach(target float64) (float64, error) {
	if target <= p.P0 {
		return 0, nil
	}
	if target >= p.Q {
		return 0, fmt.Errorf("%w: target %g not below Q=%g (reached only asymptotically)", ErrBadParams, target, p.Q)
	}
	c := p.Q/p.P0 - 1
	// target = Q / (1 + c e^{-kt})  =>  e^{-kt} = (Q/target - 1)/c
	x := (p.Q/target - 1) / c
	return -math.Log(x) / p.rate(), nil
}

// Trajectory samples P(p,t) at steps+1 evenly spaced times on [0, tMax].
type Trajectory struct {
	T []float64 // sample times
	P []float64 // popularity at each time
}

// Sample evaluates the closed-form popularity on a uniform grid.
func (p Params) Sample(tMax float64, steps int) (Trajectory, error) {
	if err := p.Validate(); err != nil {
		return Trajectory{}, err
	}
	if steps < 1 || tMax <= 0 {
		return Trajectory{}, fmt.Errorf("%w: tMax=%g steps=%d", ErrBadParams, tMax, steps)
	}
	tr := Trajectory{
		T: make([]float64, steps+1),
		P: make([]float64, steps+1),
	}
	for i := 0; i <= steps; i++ {
		t := tMax * float64(i) / float64(steps)
		tr.T[i] = t
		tr.P[i] = p.PopularityAt(t)
	}
	return tr, nil
}

// EstimateFromSamples applies the practical estimator to a sampled
// popularity trajectory: at interior sample i it computes
//
//	Q̂(t_i) = (n/r) · ((P_{i+1} - P_{i-1}) / (t_{i+1} - t_{i-1})) / P_i + P_i
//
// i.e. a central finite difference replacing the exact derivative. The
// returned slice has the same length as the trajectory; the two endpoints
// use one-sided differences. This is exactly what measuring the Web with
// snapshots does, so its deviation from Q quantifies discretisation error.
func EstimateFromSamples(tr Trajectory, n, r float64) ([]float64, error) {
	if len(tr.T) != len(tr.P) {
		return nil, fmt.Errorf("%w: trajectory length mismatch %d != %d", ErrBadParams, len(tr.T), len(tr.P))
	}
	if len(tr.T) < 2 {
		return nil, fmt.Errorf("%w: need at least 2 samples", ErrBadParams)
	}
	if n <= 0 || r <= 0 {
		return nil, fmt.Errorf("%w: n=%g r=%g", ErrBadParams, n, r)
	}
	m := len(tr.T)
	out := make([]float64, m)
	deriv := func(i, j int) float64 {
		return (tr.P[j] - tr.P[i]) / (tr.T[j] - tr.T[i])
	}
	for i := 0; i < m; i++ {
		var d float64
		switch i {
		case 0:
			d = deriv(0, 1)
		case m - 1:
			d = deriv(m-2, m-1)
		default:
			d = deriv(i-1, i+1)
		}
		if tr.P[i] <= 0 {
			return nil, fmt.Errorf("%w: non-positive popularity sample at %d", ErrBadParams, i)
		}
		out[i] = n/r*d/tr.P[i] + tr.P[i]
	}
	return out, nil
}
