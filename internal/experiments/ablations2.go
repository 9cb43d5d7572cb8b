package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pagequality/internal/graph"
	"pagequality/internal/pagerank"
	"pagequality/internal/quality"
	"pagequality/internal/webcorpus"
)

// EstimatorComparison compares the paper's endpoint estimator with the
// least-squares regression variant on a densely crawled corpus.
type EstimatorComparison struct {
	// AvgErrEndpoint / AvgErrRegression are the mean relative errors
	// predicting the future PageRank over the changed pages.
	AvgErrEndpoint   float64
	AvgErrRegression float64
	// FluctuatingFrac is the share of changed pages the endpoint
	// estimator had to fall back to I := 0 for — the population the
	// regression variant rescues.
	FluctuatingFrac float64
}

// Ablation D's schedule: five estimation crawls two weeks apart.
const (
	EstimationCrawls = 5
	gapWeeks         = 2
)

// AblationEstimator crawls the corpus EstimationCrawls times gapWeeks
// apart, then once more at futureWeek, and scores both estimator
// variants.
func AblationEstimator(cfg HeadlineConfig) (*EstimatorComparison, error) {
	sched := webcorpus.Schedule{}
	for k := 0; k < EstimationCrawls; k++ {
		sched.Times = append(sched.Times, float64(k)*gapWeeks)
		sched.Labels = append(sched.Labels, fmt.Sprintf("t%d", k+1))
	}
	sched.Times = append(sched.Times, futureWeek)
	sched.Labels = append(sched.Labels, "future")

	cfg.Schedule = sched
	cfg.EstimationSnaps = EstimationCrawls
	c, err := NewCrawl(cfg)
	if err != nil {
		return nil, err
	}
	ranks := c.ranks
	est := ranks[:EstimationCrawls]
	future := ranks[len(ranks)-1]
	cur := ranks[EstimationCrawls-1]

	endpoint, err := quality.EstimateFromSeries(est, c.cfg.Estimator)
	if err != nil {
		return nil, err
	}
	regression, err := quality.EstimateWithRegression(est, sched.Times[:EstimationCrawls], c.cfg.Estimator)
	if err != nil {
		return nil, err
	}
	// Both are scored over the same pages: the two estimators share one
	// classification, so they agree on which pages changed.
	e, err := Evaluate(endpoint, cur, future, nil)
	if err != nil {
		return nil, err
	}
	r, err := Evaluate(regression, cur, future, nil)
	if err != nil {
		return nil, err
	}
	fluct := 0
	for i, cls := range endpoint.Class {
		if cls == quality.ClassFluctuating && endpoint.Changed[i] && future[i] != 0 {
			fluct++
		}
	}
	return &EstimatorComparison{
		AvgErrEndpoint:   e.AvgErrQ,
		AvgErrRegression: r.AvgErrQ,
		FluctuatingFrac:  float64(fluct) / float64(e.PagesScored),
	}, nil
}

// SolverPoint is one row of the PageRank-solver ablation.
type SolverPoint struct {
	Name       string
	Iterations int
	Elapsed    time.Duration
	// MaxDiff is the sup-norm difference from the plain solver's vector.
	MaxDiff float64
}

// AblationPageRankSolver compares the plain power iteration against the
// Aitken-extrapolated and adaptive solvers on a Web-scale synthetic graph
// (preferential attachment, `nodes` pages) — the design-choice ablation
// for the acceleration techniques the paper's related work cites
// ([11], [12]). Pass nodes <= 0 for the 100k default.
//
// clock supplies wall time for the Elapsed fields; callers that want
// timing inject one (commands pass time.Now), and a nil clock leaves
// every Elapsed zero so the library itself stays deterministic.
func AblationPageRankSolver(cfg HeadlineConfig, nodes int, clock func() time.Time) ([]SolverPoint, error) {
	if nodes <= 0 {
		nodes = 100_000
	}
	now := func() time.Time { return time.Time{} }
	if clock != nil {
		now = clock
	}
	rng := rand.New(rand.NewSource(cfg.Corpus.Seed))
	g, err := graph.GeneratePreferentialAttachment(
		graph.PreferentialAttachmentConfig{Nodes: nodes, OutPerNode: 8}, rng)
	if err != nil {
		return nil, err
	}
	c := graph.Freeze(g)
	const tol = 1e-10

	var out []SolverPoint
	start := now()
	plain, err := pagerank.Compute(c, pagerank.Options{Tol: tol, MaxIter: 1000, Workers: 1})
	if err != nil {
		return nil, err
	}
	out = append(out, SolverPoint{Name: "plain", Iterations: plain.Iterations, Elapsed: now().Sub(start)})

	start = now()
	extra, err := pagerank.Compute(c, pagerank.Options{Tol: tol, MaxIter: 1000, Workers: 1, Extrapolate: true})
	if err != nil {
		return nil, err
	}
	out = append(out, SolverPoint{
		Name: "aitken", Iterations: extra.Iterations, Elapsed: now().Sub(start),
		MaxDiff: maxDiff(plain.Rank, extra.Rank),
	})

	start = now()
	adaptive, err := pagerank.ComputeAdaptive(c, pagerank.Options{Tol: tol, MaxIter: 1000})
	if err != nil {
		return nil, err
	}
	out = append(out, SolverPoint{
		Name: "adaptive", Iterations: adaptive.Iterations, Elapsed: now().Sub(start),
		MaxDiff: maxDiff(plain.Rank, adaptive.Rank),
	})
	return out, nil
}

func maxDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if x := math.Abs(a[i] - b[i]); x > d {
			d = x
		}
	}
	return d
}
