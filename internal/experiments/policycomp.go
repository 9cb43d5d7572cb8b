package experiments

import (
	"fmt"
	"sort"

	"pagequality/internal/graph"
	"pagequality/internal/metrics"
	"pagequality/internal/par"
	"pagequality/internal/ranking"
	"pagequality/internal/webcorpus"
)

// This file is the experiment the paper proposed but could never run
// (Section 9.2, the ranking feedback loop): close the loop and
// measure how the *choice of ranking function* shapes the Web's
// evolution. Every policy starts from the identical burn-in corpus (the
// search channel only switches on at t = 0), then the loop runs — the
// policy decides who gets seen, visibility decides who gets linked,
// links decide the next ranking — and the long-run outcomes are
// compared: how much quality got discovered, how long high-quality
// newborns waited for their first reader, how concentrated popularity
// became (Fortunato/Menczer's Gini), and how well popularity tracks
// intrinsic quality in the end.

// PolicyComparisonConfig parameterises RankingPolicyComparison.
type PolicyComparisonConfig struct {
	// Corpus is the base corpus every policy evolves (its Search field is
	// overwritten per policy). Defaults to DefaultHeadlineConfig's corpus.
	Corpus webcorpus.Config
	// Search is the shared search-channel configuration; the Policy field
	// is overridden per run. Defaults: 1500 sessions/week, top-10. No
	// session fires during the burn-in, so every policy starts from the
	// identical seed corpus.
	Search webcorpus.SearchConfig
	// Policies are the contenders. Defaults to the four of the ISSUE:
	// none, pagerank, quality, randomized-0.2.
	Policies []ranking.Policy
	// Weeks is the post-burn-in horizon (default 26, the paper's
	// six-month crawl span).
	Weeks float64
}

func (c *PolicyComparisonConfig) fill() {
	if c.Corpus.Sites == 0 {
		c.Corpus = DefaultHeadlineConfig().Corpus
	}
	if c.Search.SessionsPerWeek == 0 {
		c.Search.SessionsPerWeek = 1500
	}
	if c.Search.TopK == 0 {
		c.Search.TopK = 10
	}
	if len(c.Policies) == 0 {
		c.Policies = []ranking.Policy{
			ranking.None{},
			ranking.ByPageRank{},
			ranking.ByQuality{},
			ranking.Randomized{Epsilon: 0.2},
		}
	}
	if c.Weeks == 0 {
		c.Weeks = 26
	}
}

// PolicyOutcome is one policy's long-run numbers at the horizon.
type PolicyOutcome struct {
	// Policy is the policy's Name().
	Policy string
	// Pages and Links count the final corpus.
	Pages, Links int
	// Sessions/SearchVisits/SearchDiscoveries are the channel's
	// cumulative counters (all zero for the no-search baseline).
	Sessions, SearchVisits, SearchDiscoveries int64
	// QualityWeightedDiscovery is Σ Q(p)·A(p,T) / Σ Q(p) over all pages:
	// the fraction of the corpus' quality mass that users have found.
	QualityWeightedDiscovery float64
	// HighQNewborns counts the cohort the paper worries about: pages born
	// in the first half of the horizon with top-quartile true quality.
	HighQNewborns int
	// NewbornDiscovery is QualityWeightedDiscovery restricted to that
	// cohort — the acceptance metric (randomized >= pure PageRank here
	// is the Pandey/Cho claim).
	NewbornDiscovery float64
	// NewbornsFound counts cohort pages discovered by at least one user
	// beyond their seed liker.
	NewbornsFound int
	// MeanTimeToFirstVisit is the mean weeks from birth to first
	// discovery over the found cohort pages (0 if none).
	MeanTimeToFirstVisit float64
	// PopularityGini measures popularity concentration over all pages.
	PopularityGini float64
	// QualityPopCorr is Spearman's rho between true quality and final
	// popularity over all pages — 1 would be the paper's ideal Web where
	// popularity reflects nothing but quality.
	QualityPopCorr float64
}

// PolicyComparisonResult is the full comparison, one outcome per policy
// in the configured order.
type PolicyComparisonResult struct {
	Seed     int64
	Weeks    float64
	Outcomes []PolicyOutcome
}

// RankingPolicyComparison evolves one corpus per policy from the same
// seed (identical burn-in; the policies only diverge once search turns
// on at t = 0) and measures the long-run outcomes. Policies fan out
// across goroutines — each run is fully determined by (seed, policy), so
// the result is identical to running them sequentially, and bitwise
// identical across repeated runs and worker counts.
func RankingPolicyComparison(cfg PolicyComparisonConfig) (*PolicyComparisonResult, error) {
	cfg.fill()
	res := &PolicyComparisonResult{
		Seed:     cfg.Corpus.Seed,
		Weeks:    cfg.Weeks,
		Outcomes: make([]PolicyOutcome, len(cfg.Policies)),
	}
	err := par.DoErr(len(cfg.Policies), 0, func(i int) error {
		out, err := runPolicy(cfg, cfg.Policies[i])
		if err != nil {
			return fmt.Errorf("experiments: policy %s: %w", cfg.Policies[i].Name(), err)
		}
		res.Outcomes[i] = *out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runPolicy evolves one corpus under the policy and collects its outcome.
func runPolicy(cfg PolicyComparisonConfig, pol ranking.Policy) (*PolicyOutcome, error) {
	run := cfg.Corpus
	run.Search = cfg.Search
	run.Search.Policy = pol
	if _, none := pol.(ranking.None); none {
		// The None policy never surfaces anything; disabling the channel
		// outright evolves the bitwise-identical corpus without paying for
		// weekly index refreshes.
		run.Search = webcorpus.SearchConfig{}
	}
	sim, err := webcorpus.New(run)
	if err != nil {
		return nil, err
	}
	sim.AdvanceTo(cfg.Weeks)

	g := sim.Graph()
	n := g.NumNodes()
	out := &PolicyOutcome{Policy: pol.Name(), Pages: n, Links: g.NumEdges()}
	out.Sessions, out.SearchVisits, out.SearchDiscoveries = sim.SearchStats()

	truth := make([]float64, n)
	pops := make([]float64, n)
	for p := 0; p < n; p++ {
		truth[p] = g.Page(graph.NodeID(p)).Quality
		pops[p] = sim.Popularity(graph.NodeID(p))
	}

	// Quality-weighted discovery over the whole corpus.
	var qSum, qFound float64
	for p := 0; p < n; p++ {
		qSum += truth[p]
		qFound += float64(truth[p] * sim.Awareness(graph.NodeID(p)))
	}
	if qSum > 0 {
		out.QualityWeightedDiscovery = qFound / qSum
	}

	// The high-quality newborn cohort: born in the first half of the
	// horizon with top-quartile true quality. Later arrivals have had no
	// time to be found and would dilute the time-to-first-visit statistic.
	qThreshold := topQuartile(truth)
	var cqSum, cqFound, ttfvSum float64
	for p := 0; p < n; p++ {
		pg := g.Page(graph.NodeID(p))
		if pg.Created < 0 || pg.Created >= cfg.Weeks/2 || pg.Quality < qThreshold {
			continue
		}
		out.HighQNewborns++
		cqSum += pg.Quality
		cqFound += float64(pg.Quality * sim.Awareness(graph.NodeID(p)))
		if week, ok := sim.FirstDiscoveryWeek(graph.NodeID(p)); ok {
			out.NewbornsFound++
			ttfvSum += week - pg.Created
		}
	}
	if cqSum > 0 {
		out.NewbornDiscovery = cqFound / cqSum
	}
	if out.NewbornsFound > 0 {
		out.MeanTimeToFirstVisit = ttfvSum / float64(out.NewbornsFound)
	}

	if out.PopularityGini, err = metrics.Gini(pops); err != nil {
		return nil, err
	}
	if out.QualityPopCorr, err = metrics.SpearmanRho(truth, pops); err != nil {
		return nil, err
	}
	return out, nil
}

// topQuartile returns the 75th-percentile value of xs: the rising-star
// threshold of Crawl.RisingStars and the policy comparison.
func topQuartile(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[len(sorted)*3/4]
}
