// Package experiments contains one driver per table and figure in the
// paper's evaluation, plus the ablations DESIGN.md calls out. Each driver
// returns a structured result that cmd/experiments renders and that the
// test suite asserts shape properties on (who wins, where the crossovers
// fall), following the reproduction contract: shapes must match the paper
// even though absolute numbers come from a synthetic corpus.
package experiments

import (
	"fmt"

	"pagequality/internal/model"
)

// Figure1Result reproduces Figure 1: the sigmoidal popularity evolution of
// a page with Q = 0.8, n = 10⁸, r = 10⁸, P(p,0) = 10⁻⁸, and the three
// life stages.
type Figure1Result struct {
	Params     model.Params
	Trajectory model.Trajectory
	Stages     model.StageBoundaries
}

// Figure1Params are the exact parameters printed under Figure 1.
func Figure1Params() model.Params {
	return model.Params{Q: 0.8, N: 1e8, R: 1e8, P0: 1e-8}
}

// Figure1 evaluates the Theorem-1 closed form on the figure's time window
// [0, 40].
func Figure1() (*Figure1Result, error) {
	p := Figure1Params()
	tr, err := p.Sample(40, 400)
	if err != nil {
		return nil, fmt.Errorf("figure1: %w", err)
	}
	st, err := p.Stages(model.StageThresholds{})
	if err != nil {
		return nil, fmt.Errorf("figure1: %w", err)
	}
	return &Figure1Result{Params: p, Trajectory: tr, Stages: st}, nil
}

// Figure2Result reproduces Figure 2: I(p,t) and P(p,t) for Q = 0.2,
// n = 10⁸, r = 10⁸, P(p,0) = 10⁻⁹ on [0, 150].
type Figure2Result struct {
	Params model.Params
	T      []float64
	I      []float64 // relative popularity increase
	P      []float64 // popularity
}

// Figure2Params are the exact parameters printed under Figures 2 and 3.
func Figure2Params() model.Params {
	return model.Params{Q: 0.2, N: 1e8, R: 1e8, P0: 1e-9}
}

// Figure2 evaluates both curves analytically.
func Figure2() (*Figure2Result, error) {
	p := Figure2Params()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("figure2: %w", err)
	}
	const steps = 300
	res := &Figure2Result{
		Params: p,
		T:      make([]float64, steps+1),
		I:      make([]float64, steps+1),
		P:      make([]float64, steps+1),
	}
	for i := 0; i <= steps; i++ {
		t := 150 * float64(i) / float64(steps)
		res.T[i] = t
		res.I[i] = p.RelativeIncrease(t)
		res.P[i] = p.PopularityAt(t)
	}
	return res, nil
}

// Figure3Result reproduces Figure 3: I(p,t) + P(p,t) is the flat line at
// Q (Theorem 2), for the same parameters as Figure 2.
type Figure3Result struct {
	Params model.Params
	T      []float64
	Sum    []float64 // I + P at each time
}

// Figure3 evaluates the estimator sum over the figure's window.
func Figure3() (*Figure3Result, error) {
	f2, err := Figure2()
	if err != nil {
		return nil, fmt.Errorf("figure3: %w", err)
	}
	res := &Figure3Result{Params: f2.Params, T: f2.T, Sum: make([]float64, len(f2.T))}
	for i := range f2.T {
		res.Sum[i] = f2.I[i] + f2.P[i]
	}
	return res, nil
}
