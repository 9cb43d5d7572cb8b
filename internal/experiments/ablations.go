package experiments

import (
	"fmt"
	"sort"

	"pagequality/internal/par"
	"pagequality/internal/quality"
	"pagequality/internal/usersim"
	"pagequality/internal/webcorpus"
)

// CPoint is one row of the C-sweep ablation.
type CPoint struct {
	C        float64
	AvgErrQ  float64
	AvgErrPR float64 // constant across C, repeated for convenience
}

// AblationC sweeps the estimator constant C over the crawl, reproducing
// the paper's footnote 6: "The value 0.1 showed the best result out of all
// values that we tested. Small variations in the constant did not affect
// our result significantly."
func (c *Crawl) AblationC(cs []float64) ([]CPoint, error) {
	if len(cs) == 0 {
		return nil, fmt.Errorf("experiments: empty C sweep")
	}
	out := make([]CPoint, 0, len(cs))
	for _, cv := range cs {
		if cv < 0 {
			return nil, fmt.Errorf("experiments: C sweep value %g must be non-negative", cv)
		}
		est := c.cfg.Estimator
		est.C = cv
		res, err := c.evaluate(est)
		if err != nil {
			return nil, err
		}
		out = append(out, CPoint{C: cv, AvgErrQ: res.AvgErrQ, AvgErrPR: res.AvgErrPR})
	}
	return out, nil
}

// ForgettingResult compares the popularity-evolution class mix with and
// without the §9.1 forgetting mechanism. Classification uses the
// *absolute* popularity measure (in-degree, footnote 4) rather than
// PageRank: PageRank is zero-sum, so relative dilution produces
// "decreasing" pages even under the clean model, whereas the model's
// claim — popularity only grows without forgetting, and can genuinely
// shrink with it — is about absolute popularity.
type ForgettingResult struct {
	// ClassesClean are the class counts under the paper's clean model (no
	// forgetting, no noise): decreasing pages are (nearly) absent because
	// links are only ever added.
	ClassesClean map[quality.Class]int
	// ClassesForgetting are the counts of the crawl itself, with its
	// corpus's forgetting and churn on: decreasing and fluctuating pages
	// appear, matching what the paper observed in its real crawl data.
	ClassesForgetting map[quality.Class]int
}

// AblationForgetting tallies in-degree evolution classes on the crawl and
// on a clean rerun of its corpus with forgetting and churn off.
func (c *Crawl) AblationForgetting() (*ForgettingResult, error) {
	corpus := c.cfg.Corpus
	corpus.ForgetRate, corpus.NoiseRate = 0, 0
	clean, err := crawl(corpus, c.cfg.Schedule)
	if err != nil {
		return nil, fmt.Errorf("experiments: clean run: %w", err)
	}
	classes := func(run *Crawl) (map[quality.Class]int, error) {
		est, err := quality.EstimateFromSeries(run.al.InDegreeSeries()[:c.cfg.EstimationSnaps], c.cfg.Estimator)
		if err != nil {
			return nil, err
		}
		return est.Counts, nil
	}
	res := &ForgettingResult{}
	if res.ClassesClean, err = classes(clean); err != nil {
		return nil, err
	}
	if res.ClassesForgetting, err = classes(c); err != nil {
		return nil, err
	}
	return res, nil
}

// WindowPoint is one row of the measurement-window ablation.
type WindowPoint struct {
	// GapWeeks is the t1→t3 estimation window length.
	GapWeeks float64
	// AvgErrQLow is the mean relative error of the quality estimate for
	// the low-popularity half of the changed pages.
	AvgErrQLow float64
	// AvgErrQHigh is the same for the high-popularity half.
	AvgErrQHigh float64
}

// AblationWindow varies the estimation-window length and reports the
// error separately for low- and high-popularity pages, probing the §9.1
// statistical-noise discussion: "for low-PageRank pages, we may want to
// compute the PageRank increase over a longer period ... to reduce the
// impact of noise."
func AblationWindow(cfg HeadlineConfig, gaps []float64, futureWeek float64) ([]WindowPoint, error) {
	if len(gaps) == 0 {
		return nil, fmt.Errorf("experiments: empty gap sweep")
	}
	// One simulation with snapshots at every needed time.
	times := []float64{0}
	labels := []string{"t1"}
	for i, g := range gaps {
		if g <= 0 || g >= futureWeek {
			return nil, fmt.Errorf("experiments: gap %g outside (0, future %g)", g, futureWeek)
		}
		if i > 0 && g <= gaps[i-1] {
			return nil, fmt.Errorf("experiments: gaps must be strictly increasing")
		}
		times = append(times, g)
		labels = append(labels, fmt.Sprintf("g%d", i))
	}
	times = append(times, futureWeek)
	labels = append(labels, "future")
	cfg.Schedule = webcorpus.Schedule{Times: times, Labels: labels}
	cfg.EstimationSnaps = len(times) - 1
	c, err := NewCrawl(cfg)
	if err != nil {
		return nil, err
	}
	ranks := c.ranks
	future := ranks[len(ranks)-1]

	// Each window point reads only the shared rank series; evaluate the
	// points concurrently and collect by index.
	out := make([]WindowPoint, len(gaps))
	err = par.DoErr(len(gaps), 0, func(gi int) error {
		series := [][]float64{ranks[0], ranks[gi+1]}
		est, err := quality.EstimateFromSeries(series, c.cfg.Estimator)
		if err != nil {
			return err
		}
		cur := ranks[gi+1]
		// Split changed pages at the median current popularity.
		var lowSum, highSum float64
		var lowN, highN int
		med := medianOf(cur)
		for i := range est.Q {
			if !est.Changed[i] || future[i] == 0 {
				continue
			}
			e := abs((future[i] - est.Q[i]) / future[i])
			if cur[i] <= med {
				lowSum += e
				lowN++
			} else {
				highSum += e
				highN++
			}
		}
		wp := WindowPoint{GapWeeks: gaps[gi]}
		if lowN > 0 {
			wp.AvgErrQLow = lowSum / float64(lowN)
		}
		if highN > 0 {
			wp.AvgErrQHigh = highSum / float64(highN)
		}
		out[gi] = wp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func medianOf(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ModelValidation compares the agent simulation against Theorem 1.
type ModelValidation struct {
	Config usersim.Config
	// MaxAbsDiff is the sup-norm distance between the simulated and
	// analytic popularity trajectories.
	MaxAbsDiff float64
	// FinalSim and FinalModel are the end-of-run popularity values (both
	// should approach Q).
	FinalSim, FinalModel float64
}

// ValidateModel runs the agent-based simulator and measures its deviation
// from the closed-form popularity evolution — the end-to-end check that
// the implementation of Propositions 1–2 really produces Theorem 1.
func ValidateModel(cfg usersim.Config, tMax float64) (*ModelValidation, error) {
	sim, err := usersim.New(cfg)
	if err != nil {
		return nil, err
	}
	tr, err := sim.Run(tMax, 20)
	if err != nil {
		return nil, err
	}
	p := cfg.ModelParams()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	v := &ModelValidation{Config: cfg}
	for i, t := range tr.T {
		want := p.PopularityAt(t)
		if d := abs(tr.P[i] - want); d > v.MaxAbsDiff {
			v.MaxAbsDiff = d
		}
	}
	v.FinalSim = tr.P[len(tr.P)-1]
	v.FinalModel = p.PopularityAt(tr.T[len(tr.T)-1])
	return v, nil
}
