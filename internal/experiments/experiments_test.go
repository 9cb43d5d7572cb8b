package experiments

import (
	"errors"
	"math"
	"testing"

	"pagequality/internal/model"
	"pagequality/internal/pagerank"
	"pagequality/internal/quality"
	"pagequality/internal/usersim"
	"pagequality/internal/webcorpus"
)

// testHeadlineConfig shrinks the corpus so the full pipeline runs in
// well under a second while preserving the experiment's shape.
func testHeadlineConfig(seed int64) HeadlineConfig {
	cfg := DefaultHeadlineConfig()
	cfg.Corpus.Sites = 30
	cfg.Corpus.BirthRate = 6
	cfg.Corpus.Seed = seed
	return cfg
}

// testCrawl crawls testHeadlineConfig(seed)'s corpus.
func testCrawl(t testing.TB, seed int64) *Crawl {
	t.Helper()
	c, err := NewCrawl(testHeadlineConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFigure1ReproducesPaperShape(t *testing.T) {
	res, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	p := res.Params
	if p.Q != 0.8 || p.N != 1e8 || p.R != 1e8 || p.P0 != 1e-8 {
		t.Fatalf("figure 1 parameters drifted: %+v", p)
	}
	// Sigmoid: starts at ~0, ends at ~Q, monotone.
	tr := res.Trajectory
	if tr.P[0] > 1e-6 {
		t.Fatalf("P(0) = %g", tr.P[0])
	}
	if last := tr.P[len(tr.P)-1]; math.Abs(last-0.8) > 0.01 {
		t.Fatalf("P(40) = %g, want ~0.8", last)
	}
	for i := 1; i < len(tr.P); i++ {
		if tr.P[i] < tr.P[i-1] {
			t.Fatalf("popularity decreased at sample %d", i)
		}
	}
	// Stage boundaries land where the paper draws them (~15 and ~30).
	if res.Stages.ExpansionStart < 12 || res.Stages.ExpansionStart > 25 {
		t.Fatalf("expansion start = %g", res.Stages.ExpansionStart)
	}
	if res.Stages.MaturityStart < res.Stages.ExpansionStart ||
		res.Stages.MaturityStart > 35 {
		t.Fatalf("maturity start = %g", res.Stages.MaturityStart)
	}
}

func TestFigure2ReproducesPaperShape(t *testing.T) {
	res, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if res.Params.Q != 0.2 || res.Params.P0 != 1e-9 {
		t.Fatalf("figure 2 parameters drifted: %+v", res.Params)
	}
	n := len(res.T)
	// Early (t<70): I ≈ Q, P ≈ 0 — the paper's "I(p,t) ≈ 0.2 = Q(p)".
	early := n * 40 / 150
	if math.Abs(res.I[early]-0.2) > 0.01 {
		t.Fatalf("I(40) = %g, want ~0.2", res.I[early])
	}
	if res.P[early] > 0.01 {
		t.Fatalf("P(40) = %g, want ~0", res.P[early])
	}
	// Late (t>120): I ≈ 0, P ≈ Q.
	late := n * 140 / 150
	if res.I[late] > 0.01 {
		t.Fatalf("I(140) = %g, want ~0", res.I[late])
	}
	if math.Abs(res.P[late]-0.2) > 0.01 {
		t.Fatalf("P(140) = %g, want ~0.2", res.P[late])
	}
	// I decreasing, P increasing throughout.
	for i := 1; i < n; i++ {
		if res.I[i] > res.I[i-1]+1e-12 {
			t.Fatalf("I increased at %d", i)
		}
		if res.P[i] < res.P[i-1]-1e-12 {
			t.Fatalf("P decreased at %d", i)
		}
	}
}

func TestFigure3FlatAtQ(t *testing.T) {
	res, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Sum {
		if math.Abs(s-0.2) > 1e-9 {
			t.Fatalf("I+P at t=%g is %g, want exactly 0.2", res.T[i], s)
		}
	}
}

func TestFigure4Timeline(t *testing.T) {
	sched := webcorpus.PaperSchedule()
	if len(sched.Times) != 4 {
		t.Fatalf("timeline has %d crawls", len(sched.Times))
	}
	gaps := sched.Gaps()
	if gaps[0] != 4 || gaps[1] != 4 || gaps[2] != 18 {
		t.Fatalf("gaps = %v", gaps)
	}
}

func TestTable1(t *testing.T) {
	if len(model.Table1()) != 8 {
		t.Fatalf("Table 1 has %d rows", len(model.Table1()))
	}
}

// The headline §8.2 shape: the quality estimator predicts the future
// PageRank better than the current PageRank — lower average error, larger
// first histogram bin — and both rankings correlate positively with the
// ground-truth quality, with Q at least as good.
func TestHeadlineShape(t *testing.T) {
	res, err := testCrawl(t, 1).Headline()
	if err != nil {
		t.Fatal(err)
	}
	if res.PagesCommon == 0 || res.PagesCommon > res.PagesCrawled {
		t.Fatalf("common=%d crawled=%d", res.PagesCommon, res.PagesCrawled)
	}
	if res.PagesChanged < 100 {
		t.Fatalf("only %d changed pages — corpus too static for the experiment", res.PagesChanged)
	}
	if res.AvgErrQ >= res.AvgErrPR {
		t.Fatalf("estimator avg error %.3f not below PageRank's %.3f", res.AvgErrQ, res.AvgErrPR)
	}
	if ratio := res.AvgErrPR / res.AvgErrQ; ratio < 1.1 {
		t.Fatalf("improvement ratio %.2f < 1.1 — shape too weak", ratio)
	}
	if res.MedianErrQ >= res.MedianErrPR {
		t.Fatalf("median error: Q %.3f not below PR %.3f", res.MedianErrQ, res.MedianErrPR)
	}
	if res.FracFirstQ <= res.FracFirstPR {
		t.Fatalf("first-bin fraction: Q %.2f not above PR %.2f", res.FracFirstQ, res.FracFirstPR)
	}
	if res.HistQ.Total != res.HistPR.Total {
		t.Fatalf("histogram totals differ: %d vs %d", res.HistQ.Total, res.HistPR.Total)
	}
	if res.TauQTruth <= 0 || res.TauPRTruth <= 0 {
		t.Fatalf("rank correlations with truth not positive: %g, %g", res.TauQTruth, res.TauPRTruth)
	}
}

// TestPageRankSeriesIsColdCompute holds the crawl's PageRank series to
// one cold pagerank.Compute per aligned snapshot, bit for bit: the
// headline, the figures and the ablations all read this series.
func TestPageRankSeriesIsColdCompute(t *testing.T) {
	c := testCrawl(t, 1)
	for k, csr := range c.al.CSRs() {
		cold, err := pagerank.Compute(csr, pagerank.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range cold.Rank {
			if math.Float64bits(c.ranks[k][i]) != math.Float64bits(v) {
				t.Fatalf("snapshot %d rank[%d] = %g, cold Compute gives %g", k, i, c.ranks[k][i], v)
			}
		}
	}
}

func TestHeadlineDeterministic(t *testing.T) {
	a, err := testCrawl(t, 7).Headline()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testCrawl(t, 7).Headline()
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgErrQ != b.AvgErrQ || a.PagesChanged != b.PagesChanged { //pqlint:allow floateq bitwise reproducibility under a fixed seed is the property under test
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestHeadlineScheduleValidation(t *testing.T) {
	cfg := testHeadlineConfig(1)
	cfg.EstimationSnaps = 4 // no future snapshot left
	if _, err := NewCrawl(cfg); err == nil {
		t.Fatal("schedule without future snapshot accepted")
	}
	cfg.EstimationSnaps = 1 // no trend to measure
	if _, err := NewCrawl(cfg); err == nil {
		t.Fatal("a single estimation snapshot accepted")
	}
}

// DefaultHeadlineConfig is the §8 experiment's one default: a zero
// config is refused, not crawled with a second set of defaults.
func TestZeroHeadlineConfigRefused(t *testing.T) {
	if _, err := NewCrawl(HeadlineConfig{}); err == nil {
		t.Fatal("NewCrawl(HeadlineConfig{}) crawled")
	}
}

// Evaluate scores only the changed pages with a positive future
// PageRank; an estimate with none is ErrNoChangedPages.
func TestEvaluateNeedsChangedPages(t *testing.T) {
	est, err := quality.EstimateFromSeries([][]float64{{1, 2}, {1, 4}}, quality.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(est, est.Q, []float64{1, 0}, nil); !errors.Is(err, ErrNoChangedPages) {
		t.Fatalf("no scorable page: err = %v", err)
	}
	res, err := Evaluate(est, []float64{1, 4}, []float64{1, 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PagesCommon != 2 || res.PagesChanged != 1 || res.PagesScored != 1 || res.AvgErrPR != 0.5 {
		t.Fatalf("scored %+v", res)
	}
}

// The C sweep: some C must beat C→0 (pure current PageRank), and the
// curve must be smooth enough that neighbouring C values give similar
// errors (the paper's "small variations ... did not affect our result
// significantly").
func TestAblationC(t *testing.T) {
	c := testCrawl(t, 2)
	cs := []float64{0, 0.5, 1.0, 1.5}
	pts, err := c.AblationC(cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(cs) {
		t.Fatalf("%d points", len(pts))
	}
	// The C = 0 endpoint is the pure-popularity baseline: the estimate is
	// exactly the current PageRank, so the errors must coincide exactly
	// (an explicit zero C must not be rewritten to the 0.1 default).
	if pts[0].AvgErrQ != pts[0].AvgErrPR { //pqlint:allow floateq C=0 must reproduce the PageRank error exactly, not approximately
		t.Fatalf("C=0 error %g != PR error %g", pts[0].AvgErrQ, pts[0].AvgErrPR)
	}
	// The tuned C=1.0 beats the degenerate baseline.
	if pts[2].AvgErrQ >= pts[0].AvgErrQ {
		t.Fatalf("C=1.0 error %.3f not below C→0 error %.3f", pts[2].AvgErrQ, pts[0].AvgErrQ)
	}
	// Neighbouring C values stay within a factor 1.5.
	if pts[2].AvgErrQ/pts[1].AvgErrQ > 1.5 || pts[1].AvgErrQ/pts[2].AvgErrQ > 1.5 {
		t.Fatalf("C curve not smooth: %.3f vs %.3f", pts[1].AvgErrQ, pts[2].AvgErrQ)
	}
	// The sweep point at the crawl's own C is its headline.
	if h, err := c.Headline(); err != nil || h.AvgErrQ != pts[2].AvgErrQ { //pqlint:allow floateq the sweep and the headline must be one computation
		t.Fatalf("headline %v (%v) differs from the C=1.0 sweep point %v", h, err, pts[2])
	}
	if _, err := c.AblationC(nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, err := c.AblationC([]float64{-1}); err == nil {
		t.Fatal("negative C accepted")
	}
}

// Forgetting ablation: without forgetting and noise the clean model
// produces (almost) no consistently decreasing pages among the changed
// ones; with them, decreasing pages appear in force, matching the paper's
// observation that "many pages in our dataset showed consistent decrease
// in their PageRanks".
func TestAblationForgetting(t *testing.T) {
	res, err := testCrawl(t, 3).AblationForgetting()
	if err != nil {
		t.Fatal(err)
	}
	decClean := res.ClassesClean[quality.ClassDecreasing]
	decForg := res.ClassesForgetting[quality.ClassDecreasing]
	if decForg <= decClean {
		t.Fatalf("forgetting did not increase decreasing pages: clean=%d forgetting=%d", decClean, decForg)
	}
	if res.ClassesForgetting[quality.ClassFluctuating] == 0 {
		t.Fatal("no fluctuating pages despite churn noise")
	}
}

// Window ablation: a longer measurement window reduces the estimation
// error for low-popularity pages (§9.1's statistical-noise remedy).
func TestAblationWindow(t *testing.T) {
	cfg := testHeadlineConfig(4)
	pts, err := AblationWindow(cfg, []float64{1, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d window points", len(pts))
	}
	if pts[0].AvgErrQLow == 0 || pts[1].AvgErrQLow == 0 {
		t.Fatal("no low-popularity pages measured")
	}
	// The paper's prediction: longer windows help the low-PR half. The
	// effect is gradual, so compare the two extremes of the sweep.
	if pts[1].AvgErrQLow >= pts[0].AvgErrQLow {
		t.Fatalf("longer window did not reduce low-PR error: %.3f (1wk) vs %.3f (12wk)",
			pts[0].AvgErrQLow, pts[1].AvgErrQLow)
	}
	// Validation of bad sweeps.
	if _, err := AblationWindow(cfg, nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, err := AblationWindow(cfg, []float64{8, 2}); err == nil {
		t.Fatal("non-increasing gaps accepted")
	}
	if _, err := AblationWindow(cfg, []float64{30}); err == nil {
		t.Fatal("gap beyond future accepted")
	}
}

// ValidateModel: the agent simulation matches Theorem 1 within stochastic
// tolerance and converges to Q.
func TestValidateModel(t *testing.T) {
	cfg := usersim.Config{
		Users:        20000,
		VisitRate:    20000,
		Quality:      0.5,
		InitialLikes: 100,
		DT:           0.02,
		Seed:         42,
	}
	v, err := ValidateModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v.MaxAbsDiff > 0.06 {
		t.Fatalf("sup-norm deviation %.3f too large", v.MaxAbsDiff)
	}
	if math.Abs(v.FinalSim-0.5) > 0.03 || math.Abs(v.FinalModel-0.5) > 0.03 {
		t.Fatalf("final popularity sim=%.3f model=%.3f, want ~0.5", v.FinalSim, v.FinalModel)
	}
	bad := cfg
	bad.Users = 0
	if _, err := ValidateModel(bad); err == nil {
		t.Fatal("invalid sim config accepted")
	}
}

func BenchmarkHeadlineSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := testCrawl(b, 1).Headline(); err != nil {
			b.Fatal(err)
		}
	}
}

// Estimator ablation: on a densely crawled noisy corpus the regression
// variant must not lose to the endpoint estimator, and the endpoint
// estimator must have had fluctuating pages to fall back on.
func TestAblationEstimator(t *testing.T) {
	cfg := testHeadlineConfig(5)
	cfg.Corpus.NoiseRate = 0.03 // make single crawls noisy
	res, err := AblationEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FluctuatingFrac == 0 {
		t.Fatal("no fluctuating pages despite churn")
	}
	if res.AvgErrRegression > res.AvgErrEndpoint*1.02 {
		t.Fatalf("regression %.3f materially worse than endpoint %.3f",
			res.AvgErrRegression, res.AvgErrEndpoint)
	}
}

// Solver ablation: all three PageRank solvers agree on the fixed point.
func TestAblationPageRankSolver(t *testing.T) {
	cfg := testHeadlineConfig(6)
	pts, err := AblationPageRankSolver(cfg, 20_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d solver points", len(pts))
	}
	for _, p := range pts[1:] {
		if p.MaxDiff > 1e-6 {
			t.Fatalf("solver %s deviates by %g", p.Name, p.MaxDiff)
		}
		if p.Iterations == 0 {
			t.Fatalf("solver %s reports zero iterations", p.Name)
		}
	}
}

// The estimator's advantage must be statistically significant, not a
// sampling fluke: the paired 95% bootstrap CI of errQ - errPR lies
// entirely below zero.
func TestHeadlineSignificance(t *testing.T) {
	res, err := testCrawl(t, 1).Headline()
	if err != nil {
		t.Fatal(err)
	}
	if res.DiffCILo >= res.DiffCIHi {
		t.Fatalf("degenerate CI [%g, %g]", res.DiffCILo, res.DiffCIHi)
	}
	if res.DiffCIHi >= 0 {
		t.Fatalf("advantage not significant: CI [%g, %g]", res.DiffCILo, res.DiffCIHi)
	}
}

// Rising stars: young high-quality pages rank at least as well under the
// quality estimate as under raw PageRank — the paper's motivating claim.
func TestRisingStars(t *testing.T) {
	c := testCrawl(t, 1)
	res, err := c.RisingStars()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stars < 5 {
		t.Fatalf("only %d stars", res.Stars)
	}
	if res.MeanPercentileQ < res.MeanPercentilePR {
		t.Fatalf("quality percentile %.3f below PageRank %.3f",
			res.MeanPercentileQ, res.MeanPercentilePR)
	}
	// The future confirms the stars rise: their eventual percentile is
	// above their current PageRank percentile.
	if res.MeanPercentileFuture <= res.MeanPercentilePR {
		t.Fatalf("stars did not rise: future %.3f vs current %.3f",
			res.MeanPercentileFuture, res.MeanPercentilePR)
	}
}

// Multi-seed robustness: the §8.2 shape holds with statistical
// significance for every corpus draw tested.
func TestHeadlineMultiSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed headline")
	}
	cfg := testHeadlineConfig(0)
	res, err := RunHeadlineMultiSeed(cfg, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Factors) != 3 {
		t.Fatalf("%d factors", len(res.Factors))
	}
	if res.MinFactor <= 1 {
		t.Fatalf("worst-seed improvement factor %.2f <= 1", res.MinFactor)
	}
	if !res.AllSignificant {
		t.Fatal("advantage not significant on every seed")
	}
	if _, err := RunHeadlineMultiSeed(cfg, nil); err == nil {
		t.Fatal("empty seed list accepted")
	}
}

// The multi-seed fan-out must produce bitwise the same per-seed factors as
// crawling and scoring each seed sequentially — parallelism may only
// change wall-clock, never results.
func TestMultiSeedMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed headline")
	}
	cfg := testHeadlineConfig(0)
	seeds := []int64{1, 2}
	par, err := RunHeadlineMultiSeed(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		run := cfg
		run.Corpus.Seed = seed
		c, err := NewCrawl(run)
		if err != nil {
			t.Fatal(err)
		}
		h, err := c.Headline()
		if err != nil {
			t.Fatal(err)
		}
		// Bitwise comparison on purpose: the fan-out contract is exact
		// equality with the sequential path.
		if want := h.AvgErrPR / h.AvgErrQ; math.Float64bits(par.Factors[i]) != math.Float64bits(want) {
			t.Fatalf("seed %d: parallel factor %v != sequential %v", seed, par.Factors[i], want)
		}
	}
}
