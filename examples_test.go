package pagequality_test

// The paper's two motivating scenarios as runnable, pinned examples: `go
// test -run Example .` checks every number they print, so a document may
// quote them.

import (
	"fmt"

	"pagequality/internal/metrics"
	"pagequality/internal/quality"
	"pagequality/internal/search"
	"pagequality/internal/snapshot"
	"pagequality/internal/webcorpus"
)

// rankOf is the 1-based position of scores[i] in a stable descending
// sort: among equal scores the lower index ranks first.
func rankOf(scores []float64, i int) int {
	r := 1
	for k, s := range scores {
		if s > scores[i] || k < i && s >= scores[i] {
			r++
		}
	}
	return r
}

// A brand-new page of quality 0.9 is injected into an established Web
// (40 sites past their expansion phase, no other births) just before the
// first crawl. Crawling every four weeks, a rolling three-crawl window
// estimates quality, and the page's rank under PageRank and under the
// estimate are compared. Mid-expansion the estimate ranks it ahead of
// PageRank (200th vs 270th at week 12, 1st vs 3rd at week 16); once the
// page has matured both agree.
func Example_risingStar() {
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = 40
	cfg.InitialPagesPerSite = 8
	cfg.BurnInWeeks = 60
	cfg.BirthRate = 0
	cfg.NoiseRate = 0.002
	cfg.ForgetRate = 0
	cfg.Seed = 11
	sim, err := webcorpus.New(cfg)
	if err != nil {
		panic(err)
	}
	starID, err := sim.BirthPage(0, 0.9)
	if err != nil {
		panic(err)
	}
	starURL := sim.Graph().Page(starID).URL

	var sched webcorpus.Schedule
	for w := 0; w <= 40; w += 4 {
		sched.Times = append(sched.Times, float64(w))
		sched.Labels = append(sched.Labels, fmt.Sprintf("week%02d", w))
	}
	snaps, err := sim.RunSchedule(sched)
	if err != nil {
		panic(err)
	}
	al, err := snapshot.Align(snaps)
	if err != nil {
		panic(err)
	}
	ranks, err := al.PageRankSeries()
	if err != nil {
		panic(err)
	}
	star := -1
	for i, u := range al.URLs {
		if u == starURL {
			star = i
		}
	}
	truth, err := sim.TrueQualities(al.URLs)
	if err != nil {
		panic(err)
	}

	n := len(al.URLs)
	fmt.Printf("star %s (quality %.2f): true-quality rank %d of %d\n", starURL, truth[star], rankOf(truth, star), n)
	fmt.Printf("%-6s  %7s  %6s\n", "crawl", "PR rank", "Q rank")
	est := quality.CorpusConfig()
	for k := 2; k < len(ranks); k++ {
		res, err := quality.EstimateFromSeries(ranks[k-2:k+1], est)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-6s  %7d  %6d\n", al.Labels[k], rankOf(ranks[k], star), rankOf(res.Q, star))
	}
	// Output:
	// star http://site000.example/page000336 (quality 0.90): true-quality rank 2 of 337
	// crawl   PR rank  Q rank
	// week08      315     313
	// week12      270     200
	// week16        3       1
	// week20        1       1
	// week24        1       1
	// week28        1       1
	// week32        1       1
	// week36        1       1
	// week40        1       1
}

// A miniature quality-aware search engine over a young synthetic Web
// (30 sites, six births a week). The topic of site 0 is queried three
// ways: pure tf-idf relevance, relevance blended with PageRank (the
// status quo) and relevance blended with the quality estimate from the
// first three crawls. The quality blend moves the 8-week-old page of
// true quality 0.91 to the top. Kendall τ over the pages whose PageRank
// moved then scores both signals against the fourth crawl's PageRank and
// against the simulator's true qualities; over that whole set PageRank
// agrees more, as in EXPERIMENTS.md's τ against truth.
func Example_searchEngine() {
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = 30
	cfg.InitialPagesPerSite = 8
	cfg.BurnInWeeks = 40
	cfg.BirthRate = 6
	cfg.Seed = 5
	sim, err := webcorpus.New(cfg)
	if err != nil {
		panic(err)
	}
	snaps, err := sim.RunSchedule(webcorpus.PaperSchedule())
	if err != nil {
		panic(err)
	}
	al, err := snapshot.Align(snaps)
	if err != nil {
		panic(err)
	}
	est, ranks, err := quality.FromAligned(al, 3, quality.CorpusConfig())
	if err != nil {
		panic(err)
	}
	currentPR := ranks[2]

	// Document id = aligned index.
	ix := search.NewIndex()
	for _, url := range al.URLs {
		id, _ := sim.Graph().Lookup(url)
		ix.Add(sim.PageText(id, webcorpus.TextOptions{}))
	}
	query := webcorpus.SiteTopic(0)
	fmt.Printf("query %q over %d pages\n", query, ix.NumDocs())

	show := func(name string, auth []float64) {
		opts := search.Options{TopK: 5}
		if auth != nil {
			opts.Authority = auth
			opts.AuthorityWeight = 0.7
		}
		hits, err := ix.Search(query, opts)
		if err != nil {
			panic(err)
		}
		fmt.Println(name + ":")
		for rank, h := range hits {
			url := al.URLs[h.Doc]
			id, _ := sim.Graph().Lookup(url)
			pg := sim.Graph().Page(id)
			fmt.Printf("%d. %s  PR=%.2f  Q̂=%.2f  trueQ=%.2f  born wk %.0f\n",
				rank+1, url, currentPR[h.Doc], est.Q[h.Doc], pg.Quality, pg.Created)
		}
	}
	show("relevance", nil)
	show("relevance + PageRank", currentPR)
	show("relevance + quality estimate", est.Q)

	truth, err := sim.TrueQualities(al.URLs)
	if err != nil {
		panic(err)
	}
	var chQ, chPR, chFuture, chTruth []float64
	for i := range al.URLs {
		if est.Changed[i] {
			chQ = append(chQ, est.Q[i])
			chPR = append(chPR, currentPR[i])
			chFuture = append(chFuture, ranks[3][i])
			chTruth = append(chTruth, truth[i])
		}
	}
	tau := func(a, b []float64) float64 {
		t, err := metrics.KendallTau(a, b)
		if err != nil {
			panic(err)
		}
		return t
	}
	fmt.Printf("Kendall τ over the %d changed pages, PR(t3) vs Q̂:\n", len(chQ))
	fmt.Printf("  with PageRank at t4: %.3f vs %.3f\n", tau(chPR, chFuture), tau(chQ, chFuture))
	fmt.Printf("  with true quality:   %.3f vs %.3f\n", tau(chPR, chTruth), tau(chQ, chTruth))
	// Output:
	// query "astronomy" over 466 pages
	// relevance:
	// 1. http://site020.example/page000413  PR=0.20  Q̂=0.45  trueQ=0.27  born wk -10
	// 2. http://site000.example/page000003  PR=0.26  Q̂=0.48  trueQ=0.20  born wk -39
	// 3. http://site020.example/page000377  PR=0.75  Q̂=1.05  trueQ=0.48  born wk -16
	// 4. http://site020.example/page000412  PR=0.15  Q̂=0.15  trueQ=0.19  born wk -10
	// 5. http://site000.example/page000001  PR=0.91  Q̂=0.91  trueQ=0.27  born wk -34
	// relevance + PageRank:
	// 1. http://site000.example/page000282  PR=2.34  Q̂=2.13  trueQ=0.74  born wk -32
	// 2. http://site000.example/page000430  PR=2.33  Q̂=2.63  trueQ=0.91  born wk -8
	// 3. http://site020.example/page000157  PR=1.98  Q̂=1.78  trueQ=0.58  born wk -37
	// 4. http://site020.example/page000158  PR=1.84  Q̂=1.65  trueQ=0.63  born wk -25
	// 5. http://site020.example/page000156  PR=1.66  Q̂=1.45  trueQ=0.55  born wk -9
	// relevance + quality estimate:
	// 1. http://site000.example/page000430  PR=2.33  Q̂=2.63  trueQ=0.91  born wk -8
	// 2. http://site000.example/page000282  PR=2.34  Q̂=2.13  trueQ=0.74  born wk -32
	// 3. http://site020.example/page000360  PR=1.61  Q̂=1.91  trueQ=0.55  born wk -18
	// 4. http://site020.example/page000157  PR=1.98  Q̂=1.78  trueQ=0.58  born wk -37
	// 5. http://site020.example/page000312  PR=1.28  Q̂=1.58  trueQ=0.42  born wk -26
	// Kendall τ over the 377 changed pages, PR(t3) vs Q̂:
	//   with PageRank at t4: 0.773 vs 0.744
	//   with true quality:   0.705 vs 0.666
}
