package pagequality_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"pagequality/internal/crawler"
	"pagequality/internal/metrics"
	"pagequality/internal/quality"
	"pagequality/internal/snapshot"
	"pagequality/internal/webcorpus"
	"pagequality/internal/webserver"
)

// TestCrawledPipeline reproduces the paper's §8.1 methodology literally:
// the synthetic Web is served over HTTP, downloaded four times on the
// Figure-4 schedule by the crawler (following links until no new pages
// are reachable), the crawled snapshots are aligned on their common
// pages, and the quality estimator is evaluated against the fourth
// crawl's PageRank. The estimator must beat the current PageRank even
// though the graphs were reconstructed from HTML rather than read from
// the simulator.
func TestCrawledPipeline(t *testing.T) {
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = 20
	cfg.InitialPagesPerSite = 6
	cfg.BirthRate = 5
	cfg.BurnInWeeks = 40
	cfg.NoiseRate = 0.01
	cfg.ForgetRate = 0.01
	cfg.Seed = 6
	sim, err := webcorpus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sched := webcorpus.PaperSchedule()
	var snaps []snapshot.Snapshot
	for k, week := range sched.Times {
		sim.AdvanceTo(week)
		srv, err := webserver.New(sim.Graph().Clone(), nil)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		seeds, err := crawler.FetchSeeds(context.Background(), ts.Client(), ts.URL+"/seeds.txt")
		if err != nil {
			ts.Close()
			t.Fatal(err)
		}
		res, err := crawler.Crawl(crawler.Config{
			Seeds:           seeds,
			Client:          ts.Client(),
			Concurrency:     8,
			MaxPagesPerSite: 200000, // the paper's cap
		})
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Errors != 0 {
			t.Fatalf("crawl %d: %d fetch errors", k, res.Stats.Errors)
		}
		if res.Graph.NumNodes() < 50 {
			t.Fatalf("crawl %d found only %d pages", k, res.Graph.NumNodes())
		}
		snaps = append(snaps, snapshot.Snapshot{
			Label: sched.Labels[k],
			Time:  week,
			Graph: res.Graph,
		})
	}

	al, err := snapshot.Align(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if al.NumPages() < 50 {
		t.Fatalf("only %d common pages across crawls", al.NumPages())
	}
	est, ranks, err := quality.FromAligned(al, 3, quality.CorpusConfig())
	if err != nil {
		t.Fatal(err)
	}
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
	if len(errQ) < 30 {
		t.Fatalf("only %d changed pages in the crawled series", len(errQ))
	}
	sq, err := metrics.Summarize(errQ)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := metrics.Summarize(errPR)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("crawled pipeline: %d common pages, %d evaluated; avgErr Q=%.3f PR=%.3f",
		al.NumPages(), len(errQ), sq.Mean, sp.Mean)
	if sq.Mean >= sp.Mean {
		t.Fatalf("estimator %.3f not below PageRank %.3f on crawled snapshots", sq.Mean, sp.Mean)
	}
}
