package experiments

import (
	"fmt"

	"pagequality/internal/metrics"
	"pagequality/internal/quality"
)

// RisingStarsResult quantifies the paper's motivating claim: the quality
// estimator gives young high-quality pages ("rising stars") a better rank
// than raw PageRank does, shortening the time to get noticed.
type RisingStarsResult struct {
	// Stars is the number of rising-star pages: born within
	// RisingStarAgeWeeks before the first crawl, with true quality in the
	// corpus' top quartile.
	Stars int
	// MeanPercentilePR / MeanPercentileQ are the stars' mean rank
	// percentiles (1 = ranked above every other page) at the last
	// estimation crawl, under current PageRank and under the quality
	// estimate.
	MeanPercentilePR float64
	MeanPercentileQ  float64
	// MeanPercentileFuture is the stars' mean percentile under the future
	// crawl's PageRank — where they end up once the Web catches on.
	MeanPercentileFuture float64
	// TopDecilePR / TopDecileQ count stars ranked in the top 10% under
	// each metric at estimation time.
	TopDecilePR int
	TopDecileQ  int
}

// RisingStarAgeWeeks is how young a rising star is: born less than this
// many weeks before the first crawl.
const RisingStarAgeWeeks = 20

// RisingStars measures the ranking of the crawl's young high-quality
// pages under both metrics.
func (c *Crawl) RisingStars() (*RisingStarsResult, error) {
	est, err := quality.EstimateFromSeries(c.ranks[:c.cfg.EstimationSnaps], c.cfg.Estimator)
	if err != nil {
		return nil, err
	}

	// Identify the stars: young at t1 and top-quartile quality.
	qThreshold := topQuartile(c.truth)
	var stars []int
	for i, url := range c.al.URLs {
		id, ok := c.sim.Graph().Lookup(url)
		if !ok {
			return nil, fmt.Errorf("experiments: %q vanished", url)
		}
		pg := c.sim.Graph().Page(id)
		if pg.Created > -RisingStarAgeWeeks && pg.Quality >= qThreshold {
			stars = append(stars, i)
		}
	}
	if len(stars) == 0 {
		return nil, fmt.Errorf("experiments: no rising stars in this corpus (increase birth rate or age window)")
	}

	cur := c.ranks[c.cfg.EstimationSnaps-1]
	future := c.ranks[len(c.ranks)-1]
	res := &RisingStarsResult{Stars: len(stars)}
	prPct := metrics.RankPercentiles(cur)
	qPct := metrics.RankPercentiles(est.Q)
	fuPct := metrics.RankPercentiles(future)
	for _, i := range stars {
		res.MeanPercentilePR += prPct[i]
		res.MeanPercentileQ += qPct[i]
		res.MeanPercentileFuture += fuPct[i]
		if prPct[i] >= 0.9 {
			res.TopDecilePR++
		}
		if qPct[i] >= 0.9 {
			res.TopDecileQ++
		}
	}
	n := float64(len(stars))
	res.MeanPercentilePR /= n
	res.MeanPercentileQ /= n
	res.MeanPercentileFuture /= n
	return res, nil
}
