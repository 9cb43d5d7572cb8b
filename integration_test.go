// Package pagequality_test exercises the full pipeline across module
// boundaries: corpus growth → snapshot persistence → reload → alignment →
// PageRank series → quality estimation → evaluation, plus the
// model-vs-simulation consistency loop. These tests complement the
// per-package unit tests by checking that the pieces compose.
package pagequality_test

import (
	"math"
	"path/filepath"
	"testing"

	"pagequality/internal/experiments"
	"pagequality/internal/graph"
	"pagequality/internal/metrics"
	"pagequality/internal/model"
	"pagequality/internal/pagerank"
	"pagequality/internal/quality"
	"pagequality/internal/search"
	"pagequality/internal/snapshot"
	"pagequality/internal/usersim"
	"pagequality/internal/webcorpus"
)

// smallCorpus is the shared fast corpus for integration tests.
func smallCorpus(t *testing.T, seed int64) *webcorpus.Sim {
	t.Helper()
	// Mirror experiments.DefaultHeadlineConfig's corpus shape (aged pages,
	// steady births) at a test-friendly size.
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = 20
	cfg.InitialPagesPerSite = 6
	cfg.BirthRate = 5
	cfg.BurnInWeeks = 40
	cfg.NoiseRate = 0.01
	cfg.ForgetRate = 0.01
	cfg.Seed = seed
	sim, err := webcorpus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestPipelinePersistReloadEstimate drives the §8 experiment through the
// on-disk store, exactly as the cmd tools do.
func TestPipelinePersistReloadEstimate(t *testing.T) {
	sim := smallCorpus(t, 1)
	snaps, err := sim.RunSchedule(webcorpus.PaperSchedule())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "web.pqs")
	if err := snapshot.WriteFile(path, snaps); err != nil {
		t.Fatal(err)
	}
	loaded, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 4 {
		t.Fatalf("%d snapshots after reload", len(loaded))
	}
	al, err := snapshot.Align(loaded)
	if err != nil {
		t.Fatal(err)
	}
	est, ranks, err := quality.FromAligned(al, 3, quality.CorpusConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The estimator must beat current PageRank at predicting the future
	// PageRank over the changed pages, even through a disk round trip.
	future := ranks[3]
	var errQ, errPR []float64
	for i := range est.Q {
		if !est.Changed[i] || future[i] == 0 {
			continue
		}
		q, err := metrics.RelativeError(est.Q[i], future[i])
		if err != nil {
			t.Fatal(err)
		}
		p, err := metrics.RelativeError(ranks[2][i], future[i])
		if err != nil {
			t.Fatal(err)
		}
		errQ = append(errQ, q)
		errPR = append(errPR, p)
	}
	if len(errQ) < 50 {
		t.Fatalf("only %d changed pages", len(errQ))
	}
	sq, err := metrics.Summarize(errQ)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := metrics.Summarize(errPR)
	if err != nil {
		t.Fatal(err)
	}
	if sq.Mean >= sp.Mean {
		t.Fatalf("estimator %.3f not below PageRank %.3f after disk round trip", sq.Mean, sp.Mean)
	}
}

// TestModelChain closes the theory loop: agent simulation → sampled
// trajectory → discrete estimator → recovered quality.
func TestModelChain(t *testing.T) {
	cfg := usersim.Config{
		Users:        20000,
		VisitRate:    20000,
		Quality:      0.35,
		InitialLikes: 100,
		DT:           0.02,
		Seed:         77,
	}
	sim, err := usersim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(25, 100)
	if err != nil {
		t.Fatal(err)
	}
	est, err := model.EstimateFromSamples(tr, float64(cfg.Users), cfg.VisitRate)
	if err != nil {
		t.Fatal(err)
	}
	// Average the interior estimates: they must recover Q within noise.
	sum, n := 0.0, 0
	for i := 2; i < len(est)-2; i++ {
		sum += est[i]
		n++
	}
	if n == 0 {
		t.Fatal("no interior samples")
	}
	if got := sum / float64(n); math.Abs(got-cfg.Quality) > 0.06 {
		t.Fatalf("recovered quality %.3f, want ~%.2f", got, cfg.Quality)
	}
}

// TestSearchOverCorpus wires the corpus text generator into the search
// engine and checks topical retrieval plus authority re-ranking.
func TestSearchOverCorpus(t *testing.T) {
	sim := smallCorpus(t, 2)
	texts := sim.AllTexts(webcorpus.TextOptions{})
	ix := search.NewIndex()
	ix.AddAll(texts)
	if ix.NumDocs() != sim.NumPages() {
		t.Fatalf("indexed %d docs for %d pages", ix.NumDocs(), sim.NumPages())
	}
	topic := webcorpus.SiteTopic(0)
	hits, err := ix.Search(topic, search.Options{TopK: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatalf("no hits for topic %q", topic)
	}
	// Every hit's site must share the queried topic (topical coherence).
	for _, h := range hits {
		site := int(sim.Graph().Page(graph.NodeID(h.Doc)).Site)
		if webcorpus.SiteTopic(site) != topic {
			t.Fatalf("hit %d from site %d with topic %q, want %q",
				h.Doc, site, webcorpus.SiteTopic(site), topic)
		}
	}
	// Authority re-ranking by PageRank keeps the result set topical.
	pr, err := pagerank.Compute(graph.Freeze(sim.Graph()), pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := ix.Search(topic, search.Options{TopK: 20, Authority: pr.Rank, AuthorityWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ranked); i++ {
		if pr.Rank[ranked[i-1].Doc] < pr.Rank[ranked[i].Doc]-1e-12 {
			t.Fatal("authority-weight-1 results not in PageRank order")
		}
	}
}

// TestBowTieOnCorpus sanity-checks the structural analyses against the
// evolved corpus: one dominant weak component and a heavy-tailed in-degree
// distribution.
func TestBowTieOnCorpus(t *testing.T) {
	sim := smallCorpus(t, 3)
	sim.AdvanceTo(10)
	c := graph.Freeze(sim.Graph())
	res := graph.BowTie(c)
	total := 0
	for _, n := range res.Counts {
		total += n
	}
	if total != c.NumNodes() {
		t.Fatalf("bow-tie covers %d of %d nodes", total, c.NumNodes())
	}
	if res.Counts[graph.RegionDisconnected] > c.NumNodes()/4 {
		t.Fatalf("too many disconnected pages: %d", res.Counts[graph.RegionDisconnected])
	}
	// The corpus in-degree is quality-driven (bounded by the Beta quality
	// distribution), not a pure power law like the BA generator, but it
	// must still be strongly skewed.
	degs := graph.Degrees(c, true)
	maxDeg, sum := 0, 0
	for _, d := range degs {
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	if mean := float64(sum) / float64(len(degs)); float64(maxDeg) < 2.5*mean {
		t.Fatalf("in-degree not skewed: max %d, mean %.1f", maxDeg, mean)
	}
}

// TestInDegreeSeriesAsPopularity runs the estimator on the footnote-4
// alternative (in-degree instead of PageRank) and checks it still beats
// the baseline.
func TestInDegreeSeriesAsPopularity(t *testing.T) {
	sim := smallCorpus(t, 4)
	snaps, err := sim.RunSchedule(webcorpus.PaperSchedule())
	if err != nil {
		t.Fatal(err)
	}
	al, err := snapshot.Align(snaps)
	if err != nil {
		t.Fatal(err)
	}
	series := al.InDegreeSeries()
	est, err := quality.EstimateFromSeries(series[:3], quality.CorpusConfig())
	if err != nil {
		t.Fatal(err)
	}
	future := series[3]
	var q, p []float64
	for i := range est.Q {
		if !est.Changed[i] || future[i] == 0 {
			continue
		}
		eq, err := metrics.RelativeError(est.Q[i], future[i])
		if err != nil {
			t.Fatal(err)
		}
		ep, err := metrics.RelativeError(series[2][i], future[i])
		if err != nil {
			t.Fatal(err)
		}
		q = append(q, eq)
		p = append(p, ep)
	}
	if len(q) < 30 {
		t.Fatalf("only %d changed pages", len(q))
	}
	sq, err := metrics.Summarize(q)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := metrics.Summarize(p)
	if err != nil {
		t.Fatal(err)
	}
	if sq.Mean >= sp.Mean {
		t.Fatalf("in-degree estimator %.3f not below baseline %.3f", sq.Mean, sp.Mean)
	}
}

// TestHeadlineAcrossSeeds guards against a lucky-seed reproduction: the
// §8.2 shape must hold for several corpus seeds.
func TestHeadlineAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed headline")
	}
	for _, seed := range []int64{1, 2, 3} {
		cfg := experiments.DefaultHeadlineConfig()
		cfg.Corpus.Sites = 30
		cfg.Corpus.BirthRate = 6
		cfg.Corpus.Seed = seed
		c, err := experiments.NewCrawl(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := c.Headline()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.AvgErrQ >= res.AvgErrPR {
			t.Fatalf("seed %d: estimator %.3f not below PageRank %.3f", seed, res.AvgErrQ, res.AvgErrPR)
		}
		if res.FracFirstQ <= res.FracFirstPR {
			t.Fatalf("seed %d: first bin Q %.2f not above PR %.2f", seed, res.FracFirstQ, res.FracFirstPR)
		}
	}
}
