// Package usersim is an agent-based stochastic simulation of the paper's
// user-visitation model (Section 6). It implements the two hypotheses
// literally — visits arrive at rate V(p,t) = r·P(p,t) (Proposition 1,
// popularity-equivalence) and each visit is made by a uniformly random one
// of the n users (Proposition 2, random-visit) — and tracks awareness and
// liking per user. Its trajectories converge to the closed forms of
// internal/model as n grows, which is how the test suite validates
// Theorem 1 end to end.
package usersim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"pagequality/internal/model"
	"pagequality/internal/randx"
)

// Config parameterises a single-page simulation.
type Config struct {
	// Users is n, the total number of Web users.
	Users int
	// VisitRate is r: the page receives r·P(p,t) visits per unit time.
	VisitRate float64
	// Quality is Q(p): the probability a newly aware user likes the page.
	Quality float64
	// InitialLikes seeds the page with this many users who already know
	// and like it (P(p,0) = InitialLikes/Users). Must be >= 1: a page
	// nobody likes receives no visits under the model.
	InitialLikes int
	// ForgetRate is the §9.1 extension: each aware user forgets the page
	// at this rate per unit time (0 disables forgetting).
	ForgetRate float64
	// DT is the simulation time step (default 0.05).
	DT float64
	// Seed makes the run deterministic.
	Seed int64
}

// ErrBadConfig reports invalid simulation configuration.
var ErrBadConfig = errors.New("usersim: bad config")

func (c *Config) fill() error {
	if c.DT == 0 {
		c.DT = 0.05
	}
	// Each float bound is written so that NaN and ±Inf fail it. A rate
	// bound caps a step's Poisson mean at randx.MaxMean: visits
	// (popularity <= 1) and forgets (awareness <= Users).
	switch {
	case !(c.DT > 0 && c.DT <= math.MaxFloat64):
		return fmt.Errorf("%w: DT=%g", ErrBadConfig, c.DT)
	case c.Users < 2:
		return fmt.Errorf("%w: Users=%d", ErrBadConfig, c.Users)
	case !(c.VisitRate > 0 && c.VisitRate*c.DT <= randx.MaxMean):
		return fmt.Errorf("%w: VisitRate=%g", ErrBadConfig, c.VisitRate)
	case !(c.Quality > 0 && c.Quality <= 1):
		return fmt.Errorf("%w: Quality=%g", ErrBadConfig, c.Quality)
	case c.InitialLikes < 1 || c.InitialLikes > c.Users:
		return fmt.Errorf("%w: InitialLikes=%d", ErrBadConfig, c.InitialLikes)
	case !(c.ForgetRate >= 0 && c.ForgetRate*c.DT*float64(c.Users) <= randx.MaxMean):
		return fmt.Errorf("%w: ForgetRate=%g", ErrBadConfig, c.ForgetRate)
	}
	return nil
}

// ModelParams returns the analytic parameters this configuration
// corresponds to, for direct comparison with internal/model.
func (c Config) ModelParams() model.Params {
	return model.Params{
		Q:  c.Quality,
		N:  float64(c.Users),
		R:  c.VisitRate,
		P0: float64(c.InitialLikes) / float64(c.Users),
	}
}

// Sim is the mutable state of one page's simulation.
type Sim struct {
	cfg   Config
	rng   *rand.Rand
	likes []bool // likes[u]: user u likes the page (only aware users do)
	// awareList holds the aware users, for O(1) random removal when
	// forgetting is enabled.
	awareList []int32
	// pos[u] is u's index in awareList, or -1: the one record of awareness.
	pos       []int32
	nLikes    int
	tick      uint64 // completed steps; the clock is derived as tick*DT
	time      float64
	visits    int64 // cumulative visit count
	discovers int64 // visits that were first discoveries
}

// New creates a simulation in its initial state.
func New(cfg Config) (*Sim, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		likes: make([]bool, cfg.Users),
		pos:   make([]int32, cfg.Users),
	}
	for i := range s.pos {
		s.pos[i] = -1
	}
	// The first InitialLikes users start aware and liking. Which users
	// they are is irrelevant under the random-visit hypothesis.
	for u := 0; u < cfg.InitialLikes; u++ {
		s.addAware(int32(u))
		s.likes[u] = true
		s.nLikes++
	}
	return s, nil
}

func (s *Sim) addAware(u int32) {
	if s.pos[u] >= 0 {
		return
	}
	s.pos[u] = int32(len(s.awareList))
	s.awareList = append(s.awareList, u)
}

func (s *Sim) removeAware(u int32) {
	p := s.pos[u]
	if p < 0 {
		return
	}
	last := s.awareList[len(s.awareList)-1]
	s.awareList[p] = last
	s.pos[last] = p
	s.awareList = s.awareList[:len(s.awareList)-1]
	s.pos[u] = -1
	if s.likes[u] {
		s.likes[u] = false
		s.nLikes--
	}
}

// Popularity returns P(p,t): the fraction of users who currently like the
// page (Definition 2).
func (s *Sim) Popularity() float64 {
	return float64(s.nLikes) / float64(s.cfg.Users)
}

// Awareness returns A(p,t): the fraction of users aware of the page
// (Definition 4).
func (s *Sim) Awareness() float64 {
	return float64(len(s.awareList)) / float64(s.cfg.Users)
}

// Step advances the simulation by one DT tick: draws a Poisson number of
// visits at the current visit rate, assigns each to a uniformly random
// user, applies discovery/liking, then applies forgetting.
func (s *Sim) Step() {
	lam := s.cfg.VisitRate * s.Popularity() * s.cfg.DT
	visits := poisson(s.rng, lam)
	for v := 0; v < visits; v++ {
		s.visits++
		u := int32(s.rng.Intn(s.cfg.Users))
		if s.pos[u] >= 0 {
			continue // already aware: reading again changes nothing
		}
		s.discovers++
		s.addAware(u)
		if s.rng.Float64() < s.cfg.Quality {
			s.likes[u] = true
			s.nLikes++
		}
	}
	if s.cfg.ForgetRate > 0 && len(s.awareList) > 0 {
		forgets := poisson(s.rng, s.cfg.ForgetRate*float64(len(s.awareList))*s.cfg.DT)
		for f := 0; f < forgets && len(s.awareList) > 0; f++ {
			u := s.awareList[s.rng.Intn(len(s.awareList))]
			s.removeAware(u)
		}
	}
	// Derive the clock instead of accumulating it: time stays exactly
	// tick*DT, so tick counts match round(tMax/DT) at any horizon instead
	// of drifting by an ulp per step.
	s.tick++
	s.time = float64(s.tick) * s.cfg.DT
}

// Run advances the simulation to tMax, recording the popularity after
// every sampleEvery-th step (and the initial state), and returns the
// trajectory. The terminal sample is always included, so the trajectory
// ends exactly at the step reaching tMax even when the step count is not
// a multiple of sampleEvery.
func (s *Sim) Run(tMax float64, sampleEvery int) (model.Trajectory, error) {
	if tMax <= s.time {
		return model.Trajectory{}, fmt.Errorf("%w: tMax=%g not beyond current time %g", ErrBadConfig, tMax, s.time)
	}
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	// The step count is fixed up front from the drift-free clock: exactly
	// round((tMax-time)/DT) steps, never off by one from FP accumulation.
	steps := int(math.Round((tMax - s.time) / s.cfg.DT))
	if steps < 1 {
		steps = 1
	}
	tr := model.Trajectory{T: []float64{s.time}, P: []float64{s.Popularity()}}
	for i := 1; i <= steps; i++ {
		s.Step()
		if i%sampleEvery == 0 || i == steps {
			tr.T = append(tr.T, s.time)
			tr.P = append(tr.P, s.Popularity())
		}
	}
	return tr, nil
}

// poisson draws a Poisson(lambda) variate from rng bit for bit as
// randx.Poisson draws from a Stream: Knuth's product below λ = 30, the
// polar normal above, each uniform the top 53 bits of one Uint64. randx's
// samplers take only *Stream, so that their draws are direct calls.
func poisson(rng *rand.Rand, lambda float64) int {
	uniform := func() float64 { return float64(float64(rng.Uint64()>>11) * 0x1p-53) }
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l, k := math.Exp(-lambda), 0
		for p := uniform(); p > l; p *= uniform() {
			k++
		}
		return k
	}
	for {
		u, v := float64(2*uniform())-1, float64(2*uniform())-1
		if q := float64(u*u) + float64(v*v); q != 0 && q < 1 {
			x := lambda + float64(math.Sqrt(lambda)*(u*math.Sqrt(-2*math.Log(q)/q)))
			return int(math.Round(min(max(x, 0), randx.MaxMean)))
		}
	}
}
