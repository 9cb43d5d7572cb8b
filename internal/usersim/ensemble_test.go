package usersim

import (
	"errors"
	"math"
	"testing"
)

func ensembleConfig() Config {
	return Config{
		Users:        5000,
		VisitRate:    5000,
		Quality:      0.4,
		InitialLikes: 50,
		DT:           0.05,
		Seed:         100,
	}
}

func TestEnsembleValidation(t *testing.T) {
	cfg := ensembleConfig()
	if _, err := RunEnsemble(cfg, 1, 10, 5); !errors.Is(err, ErrBadConfig) {
		t.Fatal("single run accepted")
	}
	if _, err := RunEnsemble(cfg, 4, 0, 5); !errors.Is(err, ErrBadConfig) {
		t.Fatal("zero tMax accepted")
	}
	bad := cfg
	bad.Users = 0
	if _, err := RunEnsemble(bad, 4, 10, 5); !errors.Is(err, ErrBadConfig) {
		t.Fatal("invalid config accepted")
	}
}

func TestEnsembleMeanTracksTheorem1(t *testing.T) {
	cfg := ensembleConfig()
	ens, err := RunEnsemble(cfg, 16, 25, 20)
	if err != nil {
		t.Fatal(err)
	}
	if ens.Runs != 16 || len(ens.T) != len(ens.Mean) || len(ens.Mean) != len(ens.Std) {
		t.Fatalf("ensemble shape wrong: %+v", ens)
	}
	// The ensemble mean must track the closed form tighter than any single
	// run is required to.
	params := cfg.ModelParams()
	for j, at := range ens.T {
		if d := math.Abs(ens.Mean[j] - params.PopularityAt(at)); d > 0.03 {
			t.Fatalf("ensemble mean deviates by %g at t=%g", d, at)
		}
	}
	// Spread exists during expansion.
	maxStd := 0.0
	for _, s := range ens.Std {
		if s > maxStd {
			maxStd = s
		}
	}
	if maxStd == 0 {
		t.Fatal("no stochastic spread across runs")
	}
	// Initial state is deterministic: zero spread at t=0.
	if ens.Std[0] != 0 {
		t.Fatalf("spread at t=0: %g", ens.Std[0])
	}
}

func TestEnsembleDeterministic(t *testing.T) {
	cfg := ensembleConfig()
	a, err := RunEnsemble(cfg, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEnsemble(cfg, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Mean {
		if a.Mean[j] != b.Mean[j] || a.Std[j] != b.Std[j] { //pqlint:allow floateq bitwise reproducibility under fixed seeds is the property under test
			t.Fatal("ensemble not deterministic under fixed seeds")
		}
	}
}

// The spread shrinks as the user population grows (the 1/sqrt(n) scaling
// that motivates §9.1's noise discussion for low-popularity pages).
func TestEnsembleSpreadShrinksWithUsers(t *testing.T) {
	small := ensembleConfig()
	big := ensembleConfig()
	big.Users = 40000
	big.VisitRate = 40000
	big.InitialLikes = 400 // same P0

	sEns, err := RunEnsemble(small, 12, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	bEns, err := RunEnsemble(big, 12, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	peak := func(e *Ensemble) float64 {
		m := 0.0
		for _, s := range e.Std {
			if s > m {
				m = s
			}
		}
		return m
	}
	if peak(bEns) >= peak(sEns) {
		t.Fatalf("spread did not shrink with users: %g vs %g", peak(bEns), peak(sEns))
	}
}

func BenchmarkEnsemble(b *testing.B) {
	cfg := ensembleConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunEnsemble(cfg, 8, 15, 50); err != nil {
			b.Fatal(err)
		}
	}
}
