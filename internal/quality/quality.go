// Package quality implements the paper's primary contribution: the
// snapshot-based page-quality estimator of Sections 5 and 8,
//
//	Q(p) ≈ C · ΔPR(p)/PR(p) + PR(p)
//
// applied to a series of Web snapshots, with the paper's exact
// experimental policies: the ±5 % change filter, ΔPR measured between the
// first and last estimation snapshots and divided by the first, and the
// fluctuating-PageRank fallback I(p,t) := 0 (§9.1), under which the
// estimate degenerates to the current PageRank.
package quality

import (
	"errors"
	"fmt"
	"math"

	"pagequality/internal/pagerank"
	"pagequality/internal/snapshot"
)

// Class describes how a page's popularity evolved over the estimation
// snapshots.
type Class uint8

const (
	// ClassStable: the popularity changed by at most MinChangeFrac between
	// the first and last estimation snapshots. The estimator equals the
	// current popularity. A page whose popularity is zero in every
	// snapshot is stable.
	ClassStable Class = iota
	// ClassIncreasing: strictly increasing across every consecutive pair
	// of snapshots (the paper's PR(t1) < PR(t2) < PR(t3) pages). Pages
	// born during the estimation window — popularity 0 at t1 and positive
	// at the last snapshot, the paper's motivating rising stars — are also
	// ClassIncreasing provided the series never decreases; their trend is
	// measured from the first positive snapshot (the relative increase
	// over a zero baseline is undefined).
	ClassIncreasing
	// ClassDecreasing: strictly decreasing across every pair — the §9.1
	// pages the base model cannot produce but forgetting can.
	ClassDecreasing
	// ClassFluctuating: went up and down (including pages that were born
	// and died back to zero within the window); the paper sets I(p,t) = 0
	// for these, so the estimate is the current popularity.
	ClassFluctuating
)

func (c Class) String() string {
	switch c {
	case ClassStable:
		return "stable"
	case ClassIncreasing:
		return "increasing"
	case ClassDecreasing:
		return "decreasing"
	case ClassFluctuating:
		return "fluctuating"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Config tunes the estimator.
type Config struct {
	// C is the constant of Equation 1 weighting the relative popularity
	// increase against the current popularity. The paper used 0.1 and
	// found the result insensitive to small variations (§8.2, footnote 6).
	// C = 0 is valid and means the estimator degenerates to the current
	// popularity (the pure-popularity baseline, the C → 0 endpoint of the
	// ablation sweep); defaults are routed only through DefaultConfig,
	// never applied implicitly.
	C float64
	// MinChangeFrac is the relative-change threshold below which a page is
	// classified stable. The paper reports results only for pages whose
	// PageRank changed by more than 5 %.
	MinChangeFrac float64
	// ApplyTrendToDecreasing selects whether the ΔPR term is applied to
	// consistently decreasing pages too (the paper's §8.2 formula covers
	// pages that "consistently increased (or decreased)"). When false,
	// decreasing pages fall back to the current popularity like
	// fluctuating ones.
	ApplyTrendToDecreasing bool
	// MaxTrend, when positive, caps |ΔPR|/PR(t1) at this value before the
	// C-weighting. This is the noise-robustness measure §9.1 sketches for
	// low-popularity pages: a page observed mid-exponential growth has a
	// finite-difference slope far above its instantaneous derivative, and
	// a raw ΔPR/PR of 10× says "growing fast", not "quality is 10". Zero
	// disables the cap (the paper's original formula).
	MaxTrend float64
}

// DefaultConfig returns the paper's experimental settings (C = 0.1,
// 5 % change filter, trend applied to decreasing pages too).
func DefaultConfig() Config {
	return Config{C: 0.1, MinChangeFrac: 0.05, ApplyTrendToDecreasing: true}
}

// ErrBadInput reports invalid estimator input.
var ErrBadInput = errors.New("quality: bad input")

// fill validates the configuration. It deliberately applies no defaults:
// a caller's explicit C = 0 (the pure-popularity baseline) must survive
// untouched — use DefaultConfig for the paper's settings.
func (c *Config) fill() error {
	if c.C < 0 {
		return fmt.Errorf("%w: C=%g", ErrBadInput, c.C)
	}
	if c.MinChangeFrac < 0 {
		return fmt.Errorf("%w: MinChangeFrac=%g", ErrBadInput, c.MinChangeFrac)
	}
	if c.MaxTrend < 0 {
		return fmt.Errorf("%w: MaxTrend=%g", ErrBadInput, c.MaxTrend)
	}
	return nil
}

// Result is the estimator output.
type Result struct {
	// Q[i] is the estimated quality of page i.
	Q []float64
	// Class[i] is the popularity-evolution class of page i.
	Class []Class
	// Changed[i] reports whether page i's popularity changed by more than
	// MinChangeFrac between the first and last estimation snapshots — the
	// paper's evaluation restricts itself to these pages.
	Changed []bool
	// NumChanged counts true entries of Changed.
	NumChanged int
	// Counts tallies pages per class.
	Counts map[Class]int
}

// EstimateFromSeries applies the estimator to a popularity series:
// ranks[k][i] is the popularity (PageRank, in-degree, traffic, …) of page
// i at snapshot k. At least two snapshots are required; the paper used
// three (t1..t3). All snapshots participate in trend classification; the
// ΔPR term uses the first and last. Pages born during the window
// (popularity 0 at the first snapshot, positive at the last) count as
// changed and, when their series never decreases, as increasing, with the
// trend measured from the first positive snapshot — see the Class
// constants for the exact policy.
func EstimateFromSeries(ranks [][]float64, cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(ranks) < 2 {
		return nil, fmt.Errorf("%w: need >= 2 snapshots, got %d", ErrBadInput, len(ranks))
	}
	n := len(ranks[0])
	for k, r := range ranks {
		if len(r) != n {
			return nil, fmt.Errorf("%w: snapshot %d has %d pages, want %d", ErrBadInput, k, len(r), n)
		}
	}
	res := &Result{
		Q:       make([]float64, n),
		Class:   make([]Class, n),
		Changed: make([]bool, n),
		Counts:  make(map[Class]int),
	}
	last := len(ranks) - 1
	for i := 0; i < n; i++ {
		first := ranks[0][i]
		cur := ranks[last][i]
		cls := classify(ranks, i, cfg.MinChangeFrac)
		res.Class[i] = cls
		res.Counts[cls]++
		if first > 0 {
			res.Changed[i] = math.Abs(cur-first)/first > cfg.MinChangeFrac
		} else {
			// Born during the window: 0 → positive is always a change (the
			// relative change over a zero baseline is unbounded), so rising
			// stars stay in the evaluation set.
			res.Changed[i] = cur > 0
		}
		if res.Changed[i] {
			res.NumChanged++
		}
		switch {
		case cls == ClassIncreasing,
			cls == ClassDecreasing && cfg.ApplyTrendToDecreasing:
			// Q(p) = C · (PR(t3) - PR(t1))/PR(t1) + PR(t3)
			base := first
			if base == 0 {
				// Born page (increasing from a zero baseline): measure the
				// relative increase from its first positive snapshot. If
				// only the last snapshot is positive the trend is zero and
				// Q degenerates to the current popularity.
				for k := 1; k <= last; k++ {
					if ranks[k][i] > 0 {
						base = ranks[k][i]
						break
					}
				}
			}
			trend := (cur - base) / base
			if cfg.MaxTrend > 0 {
				trend = math.Max(-cfg.MaxTrend, math.Min(cfg.MaxTrend, trend))
			}
			res.Q[i] = cfg.C*trend + cur
			if res.Q[i] < 0 {
				res.Q[i] = 0 // a quality estimate cannot be negative
			}
		default:
			// Stable and fluctuating pages: I := 0, Q = current popularity.
			res.Q[i] = cur
		}
	}
	return res, nil
}

// classify determines the evolution class of page i.
func classify(ranks [][]float64, i int, minChange float64) Class {
	first := ranks[0][i]
	last := ranks[len(ranks)-1][i]
	if first <= 0 {
		// No popularity baseline at t1. A page that ends at zero either
		// never moved (stable) or rose and fell back (fluctuating). A page
		// born during the window — the paper's rising stars — is
		// increasing when its series never decreases, fluctuating
		// otherwise.
		if last <= 0 {
			for k := 1; k < len(ranks); k++ {
				if ranks[k][i] > 0 {
					return ClassFluctuating
				}
			}
			return ClassStable
		}
		for k := 1; k < len(ranks); k++ {
			if ranks[k][i] < ranks[k-1][i] {
				return ClassFluctuating
			}
		}
		return ClassIncreasing
	}
	if math.Abs(last-first)/first <= minChange {
		return ClassStable
	}
	inc, dec := true, true
	for k := 1; k < len(ranks); k++ {
		if ranks[k][i] <= ranks[k-1][i] {
			inc = false
		}
		if ranks[k][i] >= ranks[k-1][i] {
			dec = false
		}
	}
	switch {
	case inc:
		return ClassIncreasing
	case dec:
		return ClassDecreasing
	default:
		return ClassFluctuating
	}
}

// FromAligned runs the full Section-8 pipeline on an aligned snapshot
// series: computes PageRank for every snapshot with the given options,
// then applies the estimator to the first estimationSnaps of them. It
// returns the estimate and the whole rank series; the ranks past
// estimationSnaps (if any) are the caller's "future" reference — the
// paper estimated from t1..t3 and evaluated against t4.
func FromAligned(al *snapshot.Aligned, estimationSnaps int, prOpts pagerank.Options, cfg Config) (*Result, [][]float64, error) {
	if estimationSnaps < 2 || estimationSnaps > al.NumSnapshots() {
		return nil, nil, fmt.Errorf("%w: estimationSnaps=%d with %d snapshots",
			ErrBadInput, estimationSnaps, al.NumSnapshots())
	}
	ranks, err := al.PageRankSeries(prOpts)
	if err != nil {
		return nil, nil, err
	}
	res, err := EstimateFromSeries(ranks[:estimationSnaps], cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, ranks, nil
}

// FromAlignedIncremental is FromAligned with the PageRank series chained
// through pagerank.ComputeIncremental: each snapshot's solve re-seeds
// from the previous snapshot's fixed point (see
// Aligned.PageRankSeriesIncremental). The estimate agrees with
// FromAligned's within the PageRank convergence tolerance. This is the
// variant the serving refresh path uses, where the previous generation's
// vectors are already in memory and rebuild latency is what matters.
func FromAlignedIncremental(al *snapshot.Aligned, estimationSnaps int, prOpts pagerank.IncrementalOptions, cfg Config) (*Result, [][]float64, error) {
	if estimationSnaps < 2 || estimationSnaps > al.NumSnapshots() {
		return nil, nil, fmt.Errorf("%w: estimationSnaps=%d with %d snapshots",
			ErrBadInput, estimationSnaps, al.NumSnapshots())
	}
	ranks, err := al.PageRankSeriesIncremental(prOpts)
	if err != nil {
		return nil, nil, err
	}
	res, err := EstimateFromSeries(ranks[:estimationSnaps], cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, ranks, nil
}
