package experiments

import (
	"errors"
	"fmt"
	"math"

	"pagequality/internal/metrics"
	"pagequality/internal/par"
	"pagequality/internal/quality"
	"pagequality/internal/snapshot"
	"pagequality/internal/webcorpus"
)

// HeadlineConfig parameterises the Section-8 experiment: grow a corpus,
// crawl it on the Figure-4 schedule, estimate quality from the first three
// snapshots, evaluate against the fourth. It has no defaults of its own:
// start from DefaultHeadlineConfig and change what the experiment varies.
type HeadlineConfig struct {
	// Corpus configures the synthetic Web.
	Corpus webcorpus.Config
	// Schedule is the crawl timetable.
	Schedule webcorpus.Schedule
	// EstimationSnaps is how many leading snapshots feed the estimator
	// (at least 2); the last snapshot is the future reference.
	EstimationSnaps int
	// Estimator configures the quality estimator.
	Estimator quality.Config
}

// DefaultHeadlineConfig mirrors the paper's experimental setup on the
// synthetic corpus. The corpus is aged so the crawl window sees pages in
// every life stage (long burn-in, steady births), and the estimator is
// quality.CorpusConfig, tuned to this corpus the same way the paper tuned
// C to its crawl ("the value 0.1 showed the best result out of all values
// that we tested"). Run Crawl.AblationC to regenerate the sweep that picks
// its C.
func DefaultHeadlineConfig() HeadlineConfig {
	corpus := webcorpus.DefaultConfig()
	corpus.BurnInWeeks = 40
	corpus.BirthRate = 30
	corpus.NoiseRate = 0.01
	corpus.ForgetRate = 0.01
	return HeadlineConfig{
		Corpus:          corpus,
		Schedule:        webcorpus.PaperSchedule(),
		EstimationSnaps: 3,
		Estimator:       quality.CorpusConfig(),
	}
}

// HeadlineResult carries the §8.2 headline numbers and the Figure-5
// histograms.
type HeadlineResult struct {
	// Corpus accounting (the paper reports 4.6–5 M crawled, 2.7 M common).
	PagesCrawled int // pages in the final snapshot
	PagesCommon  int // pages present in every snapshot
	PagesChanged int // common pages whose PR changed > MinChangeFrac
	PagesScored  int // changed pages with a positive future PR: the ones scored

	// Average relative error predicting PR(t4) (paper: 0.32 vs 0.78).
	AvgErrQ  float64
	AvgErrPR float64
	// Medians, for robustness reporting.
	MedianErrQ  float64
	MedianErrPR float64
	// DiffCILo/DiffCIHi bound the paired-bootstrap 95% confidence
	// interval of AvgErrQ - AvgErrPR; an interval entirely below zero
	// means the estimator's advantage is statistically significant.
	DiffCILo, DiffCIHi float64

	// Figure-5 histograms over the changed pages.
	HistQ  *metrics.Histogram
	HistPR *metrics.Histogram
	// First-bin fractions (err < 0.1; paper: ~62 % vs ~46 %) and last-bin
	// fractions (err > 0.9 incl. overflow; paper: ~5 % vs ~10 %).
	FracFirstQ, FracFirstPR float64
	FracLastQ, FracLastPR   float64

	// Ground-truth comparison (beyond the paper — possible only because
	// the corpus knows every page's true quality): Kendall τ of each ranking
	// against true quality over the changed pages.
	TauQTruth  float64
	TauPRTruth float64

	// Class tallies from the estimator.
	Classes map[quality.Class]int
}

// Crawl is the first half of the Section-8 pipeline, run once: the corpus
// grown and crawled on the schedule, the crawls aligned on the pages
// common to all of them, their PageRank series and each common page's
// true quality. The headline, the C sweep, the forgetting ablation and
// the rising stars all read one Crawl, so cmd/experiments simulates the
// default corpus once.
type Crawl struct {
	cfg     HeadlineConfig
	sim     *webcorpus.Sim
	al      *snapshot.Aligned
	crawled int         // pages in the final snapshot
	ranks   [][]float64 // ranks[k][i]: PageRank of aligned page i at crawl k
	truth   []float64   // truth[i]: true quality of aligned page i
}

// crawl grows the corpus and crawls it on sched, aligned on the common
// pages: the one implementation of the pipeline's first step. The Crawl
// it returns holds the simulator and the aligned crawls; NewCrawl adds
// the rest.
func crawl(corpus webcorpus.Config, sched webcorpus.Schedule) (*Crawl, error) {
	sim, err := webcorpus.New(corpus)
	if err != nil {
		return nil, fmt.Errorf("experiments: corpus: %w", err)
	}
	snaps, err := sim.RunSchedule(sched)
	if err != nil {
		return nil, fmt.Errorf("experiments: schedule: %w", err)
	}
	al, err := snapshot.Align(snaps)
	if err != nil {
		return nil, fmt.Errorf("experiments: align: %w", err)
	}
	return &Crawl{sim: sim, al: al, crawled: snaps[len(snaps)-1].Graph.NumNodes()}, nil
}

// NewCrawl runs the crawl cfg describes and computes its PageRank series
// and true qualities.
func NewCrawl(cfg HeadlineConfig) (*Crawl, error) {
	if cfg.EstimationSnaps < 2 || len(cfg.Schedule.Times) < cfg.EstimationSnaps+1 {
		return nil, fmt.Errorf("experiments: schedule has %d snapshots, need %d estimation + 1 future",
			len(cfg.Schedule.Times), cfg.EstimationSnaps)
	}
	c, err := crawl(cfg.Corpus, cfg.Schedule)
	if err != nil {
		return nil, err
	}
	c.cfg = cfg
	if c.truth, err = c.sim.TrueQualities(c.al.URLs); err != nil {
		return nil, fmt.Errorf("experiments: truth: %w", err)
	}
	if c.ranks, err = c.al.PageRankSeries(); err != nil {
		return nil, fmt.Errorf("experiments: pagerank: %w", err)
	}
	return c, nil
}

// Headline estimates quality from the first EstimationSnaps crawls and
// scores it against the last crawl's PageRank: the §8.2 experiment.
func (c *Crawl) Headline() (*HeadlineResult, error) {
	return c.evaluate(c.cfg.Estimator)
}

// evaluate runs the estimator under cfg on the crawl and scores it.
func (c *Crawl) evaluate(cfg quality.Config) (*HeadlineResult, error) {
	est, err := quality.EstimateFromSeries(c.ranks[:c.cfg.EstimationSnaps], cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: estimate: %w", err)
	}
	res, err := Evaluate(est, c.ranks[c.cfg.EstimationSnaps-1], c.ranks[len(c.ranks)-1], c.truth)
	if err != nil {
		return nil, err
	}
	res.PagesCrawled = c.crawled
	return res, nil
}

// ErrNoChangedPages reports an estimate with no changed page to score.
var ErrNoChangedPages = errors.New("experiments: no changed pages to evaluate (corpus too static)")

// Evaluate is the §8.2 scorer. Over the pages est counts as changed whose
// future popularity is positive, it measures how well est.Q and the
// current popularity predict the future one: mean and median relative
// error, the paired bootstrap CI of their difference and the Figure-5
// histograms. With a non-nil truth it also ranks both against the true
// quality. PagesCrawled is the caller's to fill.
func Evaluate(est *quality.Result, current, future, truth []float64) (*HeadlineResult, error) {
	res := &HeadlineResult{
		PagesCommon:  len(est.Q),
		PagesChanged: est.NumChanged,
		HistQ:        metrics.Figure5Histogram(),
		HistPR:       metrics.Figure5Histogram(),
		Classes:      est.Counts,
	}

	var errsQ, errsPR []float64
	var changedQ, changedPR, changedTruth []float64
	for i := range est.Q {
		if !est.Changed[i] || future[i] == 0 {
			continue
		}
		eq, err := metrics.RelativeError(est.Q[i], future[i])
		if err != nil {
			return nil, err
		}
		ep, err := metrics.RelativeError(current[i], future[i])
		if err != nil {
			return nil, err
		}
		errsQ = append(errsQ, eq)
		errsPR = append(errsPR, ep)
		changedQ = append(changedQ, est.Q[i])
		changedPR = append(changedPR, current[i])
		if truth != nil {
			changedTruth = append(changedTruth, truth[i])
		}
	}
	if len(errsQ) == 0 {
		return nil, ErrNoChangedPages
	}
	res.PagesScored = len(errsQ)
	sq, err := metrics.Summarize(errsQ)
	if err != nil {
		return nil, err
	}
	sp, err := metrics.Summarize(errsPR)
	if err != nil {
		return nil, err
	}
	res.AvgErrQ, res.MedianErrQ = sq.Mean, sq.Median
	res.AvgErrPR, res.MedianErrPR = sp.Mean, sp.Median
	res.DiffCILo, res.DiffCIHi, err = metrics.BootstrapMeanDiffCI(errsQ, errsPR)
	if err != nil {
		return nil, err
	}
	if err := res.HistQ.AddAll(errsQ); err != nil {
		return nil, err
	}
	if err := res.HistPR.AddAll(errsPR); err != nil {
		return nil, err
	}
	res.FracFirstQ = res.HistQ.Fraction(0)
	res.FracFirstPR = res.HistPR.Fraction(0)
	res.FracLastQ = res.HistQ.Fraction(9)
	res.FracLastPR = res.HistPR.Fraction(9)

	if len(changedTruth) >= 2 {
		if tau, err := metrics.KendallTau(changedQ, changedTruth); err == nil {
			res.TauQTruth = tau
		}
		if tau, err := metrics.KendallTau(changedPR, changedTruth); err == nil {
			res.TauPRTruth = tau
		}
	}
	return res, nil
}

// MultiSeedResult aggregates the headline experiment across independent
// corpus draws, reporting the spread of the improvement factor — the
// robustness check a single-crawl paper could not run.
type MultiSeedResult struct {
	// Seeds lists the corpus seeds evaluated.
	Seeds []int64
	// Factors[i] is AvgErrPR/AvgErrQ for Seeds[i].
	Factors []float64
	// MinFactor and MeanFactor summarise the spread.
	MinFactor, MeanFactor float64
	// AllSignificant reports whether the paired CI excluded zero on every
	// seed.
	AllSignificant bool
}

// RunHeadlineMultiSeed runs the experiment once per seed. The seeds fan
// out across a worker pool (each corpus is fully determined by its own
// seed, so per-seed results are identical to running the seeds
// sequentially); aggregation happens in seed order afterwards.
func RunHeadlineMultiSeed(cfg HeadlineConfig, seeds []int64) (*MultiSeedResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: no seeds")
	}
	headlines := make([]*HeadlineResult, len(seeds))
	err := par.DoErr(len(seeds), 0, func(i int) error {
		run := cfg
		run.Corpus.Seed = seeds[i]
		c, err := NewCrawl(run)
		if err == nil {
			headlines[i], err = c.Headline()
		}
		if err != nil {
			return fmt.Errorf("seed %d: %w", seeds[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &MultiSeedResult{Seeds: seeds, MinFactor: math.Inf(1), AllSignificant: true}
	sum := 0.0
	for _, h := range headlines {
		f := h.AvgErrPR / h.AvgErrQ
		res.Factors = append(res.Factors, f)
		sum += f
		if f < res.MinFactor {
			res.MinFactor = f
		}
		if h.DiffCIHi >= 0 {
			res.AllSignificant = false
		}
	}
	res.MeanFactor = sum / float64(len(seeds))
	return res, nil
}
