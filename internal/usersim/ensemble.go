package usersim

import (
	"fmt"
	"math"

	"pagequality/internal/model"
	"pagequality/internal/par"
)

// Ensemble aggregates many independent runs of the same page
// configuration: the empirical mean trajectory and its pointwise standard
// deviation. The mean converges to the Theorem-1 closed form as runs
// grow, and the standard deviation quantifies the §9.1 statistical noise
// the snapshot estimator has to survive.
type Ensemble struct {
	// T are the shared sample times.
	T []float64
	// Mean[i] and Std[i] are the across-run mean and standard deviation of
	// the popularity at T[i].
	Mean, Std []float64
	// Runs is the number of simulations aggregated.
	Runs int
}

// RunEnsemble executes runs independent simulations of cfg (seeds
// cfg.Seed, cfg.Seed+1, ...) in parallel and aggregates their
// trajectories. Every run samples at the same step boundaries, so the
// trajectories align exactly.
func RunEnsemble(cfg Config, runs int, tMax float64, sampleEvery int) (*Ensemble, error) {
	if runs < 2 {
		return nil, fmt.Errorf("%w: runs=%d (need >= 2 for a spread)", ErrBadConfig, runs)
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if tMax <= 0 {
		return nil, fmt.Errorf("%w: tMax=%g", ErrBadConfig, tMax)
	}
	if sampleEvery < 1 {
		sampleEvery = 1
	}

	trajectories := make([]model.Trajectory, runs)
	err := par.DoErr(runs, 0, func(i int) error {
		run := cfg
		run.Seed = cfg.Seed + int64(i)
		sim, err := New(run)
		if err != nil {
			return err
		}
		trajectories[i], err = sim.Run(tMax, sampleEvery)
		return err
	})
	if err != nil {
		return nil, err
	}

	// All runs share the same step grid; verify and aggregate.
	base := trajectories[0]
	for i := 1; i < runs; i++ {
		if len(trajectories[i].T) != len(base.T) {
			return nil, fmt.Errorf("usersim: run %d sampled %d points, run 0 sampled %d",
				i, len(trajectories[i].T), len(base.T))
		}
	}
	m := len(base.T)
	ens := &Ensemble{
		T:    append([]float64(nil), base.T...),
		Mean: make([]float64, m),
		Std:  make([]float64, m),
		Runs: runs,
	}
	for j := 0; j < m; j++ {
		sum := 0.0
		for i := 0; i < runs; i++ {
			sum += trajectories[i].P[j]
		}
		mean := sum / float64(runs)
		varSum := 0.0
		for i := 0; i < runs; i++ {
			d := trajectories[i].P[j] - mean
			varSum += d * d
		}
		ens.Mean[j] = mean
		ens.Std[j] = math.Sqrt(varSum / float64(runs-1))
	}
	return ens, nil
}
