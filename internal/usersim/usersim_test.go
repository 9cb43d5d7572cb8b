package usersim

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"pagequality/internal/model"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Users: 1, VisitRate: 1, Quality: 0.5, InitialLikes: 1},
		{Users: 10, VisitRate: 0, Quality: 0.5, InitialLikes: 1},
		{Users: 10, VisitRate: 1, Quality: 0, InitialLikes: 1},
		{Users: 10, VisitRate: 1, Quality: 1.5, InitialLikes: 1},
		{Users: 10, VisitRate: 1, Quality: 0.5, InitialLikes: 0},
		{Users: 10, VisitRate: 1, Quality: 0.5, InitialLikes: 11},
		{Users: 10, VisitRate: 1, Quality: 0.5, InitialLikes: 1, ForgetRate: -1},
		{Users: 10, VisitRate: 1, Quality: 0.5, InitialLikes: 1, DT: -0.1},
	}
	for i, c := range bad {
		if _, err := New(c); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: config %+v accepted", i, c)
		}
	}
}

// TestConfigRefusesNonFinite sets each float field to NaN, +Inf and -Inf
// in turn: every one must be refused, though NaN and +Inf pass a plain <
// or <= bound. A rate, or the step that scales it, set to a huge finite
// value must be refused too: its per-step mean passes randx.MaxMean.
func TestConfigRefusesNonFinite(t *testing.T) {
	fields := []struct {
		name  string
		rate  bool // sets the mean of a step's Poisson draw
		field func(*Config) *float64
	}{
		{"VisitRate", true, func(c *Config) *float64 { return &c.VisitRate }},
		{"Quality", false, func(c *Config) *float64 { return &c.Quality }},
		{"ForgetRate", true, func(c *Config) *float64 { return &c.ForgetRate }},
		{"DT", true, func(c *Config) *float64 { return &c.DT }},
	}
	for _, f := range fields {
		values := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		if f.rate {
			values = append(values, 1e300, math.MaxFloat64)
		}
		for _, v := range values {
			cfg := Config{Users: 10, VisitRate: 1, Quality: 0.5, InitialLikes: 1}
			*f.field(&cfg) = v
			if err := cfg.fill(); !errors.Is(err, ErrBadConfig) {
				t.Errorf("%s = %g: error %v, want ErrBadConfig", f.name, v, err)
			}
		}
	}
}

func TestInitialState(t *testing.T) {
	s, err := New(Config{Users: 100, VisitRate: 100, Quality: 0.5, InitialLikes: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Popularity(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("initial popularity = %g, want 0.1", got)
	}
	if got := s.Awareness(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("initial awareness = %g, want 0.1", got)
	}
	if s.time != 0 || s.visits != 0 {
		t.Fatal("initial time or visit count nonzero")
	}
}

func TestModelParamsMapping(t *testing.T) {
	c := Config{Users: 1000, VisitRate: 2000, Quality: 0.3, InitialLikes: 5}
	p := c.ModelParams()
	if p.Q != 0.3 || p.N != 1000 || p.R != 2000 || math.Abs(p.P0-0.005) > 1e-15 {
		t.Fatalf("ModelParams = %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) model.Trajectory {
		s, err := New(Config{Users: 2000, VisitRate: 2000, Quality: 0.5, InitialLikes: 20, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := s.Run(10, 10)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := run(7), run(7)
	if len(a.P) != len(b.P) {
		t.Fatal("same seed produced different lengths")
	}
	for i := range a.P {
		if a.P[i] != b.P[i] { //pqlint:allow floateq bitwise reproducibility under a fixed seed is the property under test
			t.Fatalf("same seed diverged at sample %d", i)
		}
	}
	c := run(8)
	same := true
	for i := range a.P {
		if i < len(c.P) && a.P[i] != c.P[i] { //pqlint:allow floateq bitwise prefix parity across horizons is the property under test
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical trajectories")
	}
}

// The simulated trajectory must track the closed form of Theorem 1. With
// n = 20000 users the relative fluctuation is ~1/sqrt(n·P); compare with a
// generous tolerance at a set of checkpoints.
func TestMatchesTheorem1(t *testing.T) {
	cfg := Config{
		Users:        20000,
		VisitRate:    20000,
		Quality:      0.5,
		InitialLikes: 100, // P0 = 0.005
		DT:           0.02,
		Seed:         42,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.ModelParams()
	tr, err := s.Run(30, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i, ti := range tr.T {
		want := p.PopularityAt(ti)
		got := tr.P[i]
		tol := 0.04 + 0.1*want // absolute + relative slack for stochastic noise
		if math.Abs(got-want) > tol {
			t.Fatalf("t=%.2f: sim %g vs model %g (tol %g)", ti, got, want, tol)
		}
	}
	// End state must have essentially saturated at Q.
	if got := tr.P[len(tr.P)-1]; math.Abs(got-cfg.Quality) > 0.03 {
		t.Fatalf("final popularity %g, want ~Q=%g", got, cfg.Quality)
	}
}

// Popularity can never exceed awareness, and the liking fraction among
// aware users converges to Q (the definition of quality).
func TestQualityIsLikeFractionOfAware(t *testing.T) {
	cfg := Config{Users: 10000, VisitRate: 10000, Quality: 0.3, InitialLikes: 50, Seed: 5}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(40, 100); err != nil {
		t.Fatal(err)
	}
	if s.Popularity() > s.Awareness() {
		t.Fatalf("popularity %g exceeds awareness %g", s.Popularity(), s.Awareness())
	}
	frac := s.Popularity() / s.Awareness()
	// Initial likers bias the ratio upward slightly; allow 3 sigma.
	if math.Abs(frac-cfg.Quality) > 0.03 {
		t.Fatalf("like fraction of aware = %g, want ~Q=%g", frac, cfg.Quality)
	}
}

// With forgetting, a page born popular must lose popularity toward Qeff
// (§9.1 decreasing-popularity behaviour).
func TestForgettingDecreasesPopularity(t *testing.T) {
	cfg := Config{
		Users:        20000,
		VisitRate:    20000,
		Quality:      0.5,
		InitialLikes: 8000, // P0 = 0.4
		ForgetRate:   0.3,  // Qeff = 0.2
		DT:           0.02,
		Seed:         11,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := s.Popularity()
	tr, err := s.Run(60, 100)
	if err != nil {
		t.Fatal(err)
	}
	end := tr.P[len(tr.P)-1]
	if end >= start {
		t.Fatalf("popularity rose from %g to %g despite forgetting", start, end)
	}
	f := model.ForgettingParams{Params: cfg.ModelParams(), Phi: cfg.ForgetRate}
	if math.Abs(end-f.EffectiveQuality()) > 0.05 {
		t.Fatalf("final popularity %g, want ~Qeff=%g", end, f.EffectiveQuality())
	}
}

func TestVisitAccounting(t *testing.T) {
	cfg := Config{Users: 5000, VisitRate: 5000, Quality: 0.8, InitialLikes: 50, Seed: 3}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(20, 10); err != nil {
		t.Fatal(err)
	}
	if s.visits == 0 {
		t.Fatal("no visits recorded")
	}
	if s.discovers > s.visits {
		t.Fatal("more discoveries than visits")
	}
	// Every aware user beyond the initial seeds was discovered exactly once.
	wantDisc := int64(float64(cfg.Users)*s.Awareness()) - int64(cfg.InitialLikes)
	if d := s.discovers; absInt64(d-wantDisc) > 2 {
		t.Fatalf("discoveries = %d, aware-derived = %d", d, wantDisc)
	}
}

func absInt64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestRunValidation(t *testing.T) {
	s, err := New(Config{Users: 100, VisitRate: 100, Quality: 0.5, InitialLikes: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0, 1); err == nil {
		t.Fatal("tMax <= current time accepted")
	}
}

func TestPoissonMoments(t *testing.T) {
	s, err := New(Config{Users: 10, VisitRate: 1, Quality: 0.5, InitialLikes: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, lambda := range []float64{0, 0.5, 3, 12, 80, 400} {
		const trials = 20000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < trials; i++ {
			x := float64(poisson(s.rng, lambda))
			sum += x
			sumSq += x * x
		}
		mean := sum / trials
		variance := sumSq/trials - mean*mean
		tol := 4 * math.Sqrt(math.Max(lambda, 1)/trials) * math.Max(1, math.Sqrt(lambda))
		if math.Abs(mean-lambda) > tol {
			t.Fatalf("lambda=%g: mean %g (tol %g)", lambda, mean, tol)
		}
		if lambda > 0 && math.Abs(variance-lambda)/lambda > 0.15 {
			t.Fatalf("lambda=%g: variance %g", lambda, variance)
		}
	}
}

func BenchmarkStep(b *testing.B) {
	s, err := New(Config{Users: 100000, VisitRate: 100000, Quality: 0.5, InitialLikes: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// TestRunTerminalSample is the regression test for the dropped-endpoint
// bug: when the step count is not a multiple of sampleEvery, the
// trajectory used to end before tMax, biasing every convergence
// comparison against internal/model.
func TestRunTerminalSample(t *testing.T) {
	cfg := Config{Users: 500, VisitRate: 500, Quality: 0.6, InitialLikes: 5, DT: 0.05, Seed: 3}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 20 steps; 20 % 7 != 0, so the old code dropped the final sample.
	tr, err := s.Run(1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Samples: initial state, steps 7 and 14, and the terminal step 20.
	if len(tr.T) != 4 {
		t.Fatalf("trajectory has %d samples, want 4 (initial, 7, 14, terminal): %v", len(tr.T), tr.T)
	}
	last := tr.T[len(tr.T)-1]
	if math.Abs(last-1.0) > 1e-12 {
		t.Fatalf("trajectory ends at t=%v, want tMax=1", last)
	}
	//pqlint:allow floateq the terminal sample must be the exact final state, not a nearby one
	if got := s.Popularity(); tr.P[len(tr.P)-1] != got {
		t.Fatalf("terminal sample %v is not the final popularity %v", tr.P[len(tr.P)-1], got)
	}

	// A step count that IS a multiple of sampleEvery must not duplicate
	// the terminal sample.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := s2.Run(0.7, 7) // 14 steps: samples at 7 and 14 only
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2.T) != 3 {
		t.Fatalf("aligned run has %d samples, want 3: %v", len(tr2.T), tr2.T)
	}
	if tr2.T[1] >= tr2.T[2] {
		t.Fatalf("duplicate terminal sample: %v", tr2.T)
	}
}

// TestTickCountDriftFree10k pins the clock bugfix at a long horizon: with
// an inexact DT, 10k+ accumulated additions drift by ulps and the old
// strict `time < tMax` loop could run a step too many or too few. The
// derived clock must take exactly round(tMax/DT) steps.
func TestTickCountDriftFree10k(t *testing.T) {
	cfg := Config{Users: 50, VisitRate: 1, Quality: 0.5, InitialLikes: 1, DT: 0.003, Seed: 1}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const tMax = 30.0
	wantSteps := uint64(math.Round(tMax / cfg.DT)) // 10000
	if wantSteps != 10000 {
		t.Fatalf("test setup: want 10000 steps, computed %d", wantSteps)
	}
	tr, err := s.Run(tMax, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.tick != wantSteps {
		t.Fatalf("took %d ticks, want %d", s.tick, wantSteps)
	}
	if want := float64(wantSteps) * cfg.DT; math.Float64bits(s.time) != math.Float64bits(want) {
		t.Fatalf("clock %v, want derived %v", s.time, want)
	}
	if len(tr.T) != int(wantSteps)+1 {
		t.Fatalf("trajectory has %d samples, want %d", len(tr.T), wantSteps+1)
	}
	if math.Abs(tr.T[len(tr.T)-1]-tMax) > 1e-9 {
		t.Fatalf("trajectory ends at %v, want %v", tr.T[len(tr.T)-1], tMax)
	}
}

// TestForgettingBitsPinned pins a run with forgetting on, so removeAware
// and the like-clearing path are exercised: the CRC32 of every sample's
// time and popularity bits, the sample count and the final awareness
// bits. Any change to the draw order or to the awareness bookkeeping
// moves them.
func TestForgettingBitsPinned(t *testing.T) {
	s, err := New(Config{Users: 3000, VisitRate: 3000, Quality: 0.6, InitialLikes: 30, ForgetRate: 0.4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run(20, 7)
	if err != nil {
		t.Fatal(err)
	}
	h := crc32.NewIEEE()
	var buf []byte
	for i := range tr.P {
		buf = binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(tr.T[i]))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(tr.P[i]))
		h.Write(buf)
	}
	const (
		wantSamples   = 59
		wantCRC       = uint32(0x110c24ce)
		wantAwareness = uint64(0x3fd1c54a6921735f)
	)
	if len(tr.P) != wantSamples || h.Sum32() != wantCRC {
		t.Errorf("trajectory: %d samples, crc %#08x; want %d, %#08x", len(tr.P), h.Sum32(), wantSamples, wantCRC)
	}
	if got := math.Float64bits(s.Awareness()); got != wantAwareness {
		t.Errorf("awareness bits %#016x (%g), want %#016x", got, s.Awareness(), wantAwareness)
	}
}
