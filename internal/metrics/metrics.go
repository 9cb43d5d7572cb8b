// Package metrics implements the evaluation machinery of Section 8: the
// relative prediction error err(p), its Figure-5 histogram (0.1-wide bins
// with everything above 1 clamped into the last bin), summary statistics,
// and the rank-comparison measures (Kendall τ, Spearman ρ, NDCG) used to
// compare quality-based and popularity-based rankings.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrBadInput reports invalid metric inputs.
var ErrBadInput = errors.New("metrics: bad input")

// RelativeError computes the paper's err(p) = |truth - estimate| / truth
// for one page. The truth must be non-zero.
func RelativeError(estimate, truth float64) (float64, error) {
	if truth == 0 {
		return 0, fmt.Errorf("%w: zero truth value", ErrBadInput)
	}
	return math.Abs((truth - estimate) / truth), nil
}

// Summary holds the summary statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	Median   float64
	Min, Max float64
	StdDev   float64
	P90      float64 // 90th percentile
}

// Summarize computes summary statistics. An empty sample is an error.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, fmt.Errorf("%w: empty sample", ErrBadInput)
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	varSum := 0.0
	for _, x := range xs {
		d := x - s.Mean
		varSum += d * d
	}
	s.StdDev = math.Sqrt(varSum / float64(len(xs)))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = quantileSorted(sorted, 0.5)
	s.P90 = quantileSorted(sorted, 0.9)
	return s, nil
}

// quantileSorted interpolates the q-quantile of an ascending sample.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram is the Figure-5 style error histogram: Bins[i] counts values
// in (i·Width, (i+1)·Width] for i > 0 and [0, Width] for i = 0; values
// beyond the last edge are clamped into the final bin ("when the error was
// larger than 1, we put them into the last bin labeled as 1").
type Histogram struct {
	Width float64
	Bins  []int
	Total int
}

// NewHistogram builds a histogram with the given bin width and bin count.
func NewHistogram(width float64, bins int) (*Histogram, error) {
	if width <= 0 || bins < 1 {
		return nil, fmt.Errorf("%w: width=%g bins=%d", ErrBadInput, width, bins)
	}
	return &Histogram{Width: width, Bins: make([]int, bins)}, nil
}

// Figure5Histogram returns the paper's exact configuration: ten bins of
// width 0.1 labelled 0.1 … 1, with errors above 1 in the last bin.
func Figure5Histogram() *Histogram {
	h, err := NewHistogram(0.1, 10)
	if err != nil {
		panic(err) // constants are valid by construction
	}
	return h
}

// Add records one non-negative value.
func (h *Histogram) Add(x float64) error {
	if x < 0 || math.IsNaN(x) {
		return fmt.Errorf("%w: histogram value %g", ErrBadInput, x)
	}
	i := int(x / h.Width)
	if x > 0 && math.Mod(x, h.Width) == 0 {
		i-- // right-closed bins: 0.1 falls in the first bin
	}
	if i >= len(h.Bins) {
		i = len(h.Bins) - 1
	}
	h.Bins[i]++
	h.Total++
	return nil
}

// AddAll records every value, stopping at the first invalid one.
func (h *Histogram) AddAll(xs []float64) error {
	for _, x := range xs {
		if err := h.Add(x); err != nil {
			return err
		}
	}
	return nil
}

// Fraction returns the share of observations in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Bins[i]) / float64(h.Total)
}

// Fractions returns the share per bin.
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.Bins))
	for i := range h.Bins {
		out[i] = h.Fraction(i)
	}
	return out
}

// Label returns the paper-style label of bin i (the bin's right edge).
func (h *Histogram) Label(i int) string {
	return fmt.Sprintf("%.1f", float64(i+1)*h.Width)
}
