package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pagequality/internal/corpus"
	"pagequality/internal/crawler"
	"pagequality/internal/graph"
	"pagequality/internal/pagerank"
	"pagequality/internal/pagestore"
	"pagequality/internal/quality"
	"pagequality/internal/search"
	"pagequality/internal/snapshot"
	"pagequality/internal/webcorpus"
	"pagequality/internal/webserver"
)

// archiveOptions rotates segments at 1 MiB, so the ~16 MB three-crawl
// archive is ~16 sealed segments: the footer path of Open, the
// per-segment fan-out of corpus.Extract and the parallel scan all run.
// At the 64 MiB default the whole archive would be one unsealed segment.
var archiveOptions = pagestore.Options{MaxSegmentBytes: 1 << 20}

// estimatorConfig is qualityserve's default-flag estimator.
var estimatorConfig = quality.Config{C: 1.0, MinChangeFrac: 0.05, ApplyTrendToDecreasing: true, MaxTrend: 0.3}

// crawlWeeks are the three crawls of the serving fixture.
var crawlWeeks = []float64{0, 4, 8}

// newCrawledCorpus grows the sites × pages corpus ingest and the serving
// fixture crawl.
func newCrawledCorpus(e *env) (*webcorpus.Sim, error) {
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = e.sizes.sites
	cfg.InitialPagesPerSite = e.sizes.pagesPer
	cfg.Seed = e.seed
	return webcorpus.New(cfg)
}

// siteHandler renders the corpus as it stands now.
func siteHandler(sim *webcorpus.Sim) (*webserver.Server, error) {
	return webserver.New(sim.Graph().Clone(), sim.AllTexts(webcorpus.TextOptions{}))
}

// handlerTransport answers requests by calling the handler directly: the
// fixture crawls need the crawler's behaviour, not sockets.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// crawlInto crawls the site behind client from its seed list and archives
// every fetched body under label through put (nil: arch.Put).
func crawlInto(ctx context.Context, arch *pagestore.Store, client *http.Client, baseURL, label string, week float64, workers int,
	put func(key string, meta pagestore.Meta, body []byte) error) (*crawler.Result, error) {
	seeds, err := crawler.FetchSeeds(ctx, client, baseURL+"/seeds.txt")
	if err != nil {
		return nil, err
	}
	if put == nil {
		put = arch.Put
	}
	var putErr firstError
	res, err := crawler.Crawl(crawler.Config{
		Seeds:       seeds,
		Client:      client,
		Concurrency: workers,
		OnFetch: func(u string, body []byte) {
			putErr.set(put(label+"/"+u, pagestore.Meta{FetchedAt: week, Status: http.StatusOK}, body))
		},
	})
	if err != nil {
		return nil, err
	}
	if err := putErr.get(); err != nil {
		return nil, err
	}
	return res, nil
}

// fixture is what qualityserve consumes: a snapshot store and the page
// archive of three crawls of one growing corpus.
type fixture struct {
	storePath  string
	archiveDir string
	vocab      []string // topic names, then 40 words per topic
	pages      int      // pages the last crawl fetched
}

// buildFixture crawls the corpus at weeks 0, 4 and 8 through an
// in-process transport and writes the store.
func buildFixture(e *env) (*fixture, error) {
	sim, err := newCrawledCorpus(e)
	if err != nil {
		return nil, err
	}
	fx := &fixture{
		storePath:  filepath.Join(e.tmp, "web.pqs"),
		archiveDir: filepath.Join(e.tmp, "pages"),
		vocab:      sim.QueryVocab(40),
	}
	arch, err := pagestore.Open(fx.archiveDir, archiveOptions)
	if err != nil {
		return nil, err
	}
	defer arch.Close()
	var snaps []snapshot.Snapshot
	for k, week := range crawlWeeks {
		sim.AdvanceTo(week)
		h, err := siteHandler(sim)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("t%d", k+1)
		client := &http.Client{Transport: handlerTransport{h}}
		res, err := crawlInto(e.ctx, arch, client, "http://corpus.bench", label, week, e.nproc, nil)
		if err != nil {
			return nil, err
		}
		if res.Stats.Errors != 0 {
			return nil, fmt.Errorf("fixture crawl %s: %d errors", label, res.Stats.Errors)
		}
		fx.pages = res.Stats.Fetched
		snaps = append(snaps, snapshot.Snapshot{Label: label, Time: week, Graph: res.Graph})
	}
	e.layer["snapshot.write_ms"] = ms(timeIt(func() { err = snapshot.WriteFile(fx.storePath, snaps) }))
	if err != nil {
		return nil, err
	}
	if err := arch.Close(); err != nil {
		return nil, err
	}
	return fx, nil
}

// generation is the in-process twin of qualityserve's serving state.
type generation struct {
	ix    *search.Index
	sx    *search.ShardedIndex
	urls  []string
	qual  []float64
	pr    []float64
	meanQ float64 // mean of the estimate over the common pages

	prefix string         // archive key prefix of the indexed crawl
	byURL  map[string]int // canonical URL -> aligned page
}

// indexable is qualityserve's projection of one archived document.
type indexable struct {
	canonical string
	body      string
	ai        int
}

// replayGeneration makes the same public calls, in the same order, as
// qualityserve's loadGeneration (cmd/qualityserve/main.go) with default
// flags, one span around each, so a refresh's cost can be attributed to
// layers without instrumenting the server. FromAlignedIncremental is
// unfolded one level (CSRs, Compute, Diff + ComputeIncremental,
// EstimateFromSeries) to tell PageRank from the estimator.
func replayGeneration(fx *fixture, tr *tracer, workers int) (*generation, error) {
	root := tr.begin(nil, "qualityserve.loadGeneration")
	defer root.end()

	sp := tr.begin(root, "snapshot.ReadFile")
	snaps, err := snapshot.ReadFile(fx.storePath)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin(root, "snapshot.Align")
	al, err := snapshot.Align(snaps)
	sp.end()
	if err != nil {
		return nil, err
	}

	sp = tr.begin(root, "quality.FromAlignedIncremental")
	ranks, est, err := replayEstimate(al, tr, sp)
	sp.end()
	if err != nil {
		return nil, err
	}
	cur := ranks[len(ranks)-1]
	label := al.Labels[len(al.Labels)-1]

	sp = tr.begin(root, "pagestore.Open")
	arch, err := pagestore.Open(fx.archiveDir, pagestore.Options{})
	sp.end()
	if err != nil {
		return nil, err
	}
	defer arch.Close()

	g := &generation{ix: search.NewIndex(), prefix: label + "/", byURL: make(map[string]int, len(al.URLs))}
	for i, u := range al.URLs {
		g.byURL[u] = i
	}
	sp = tr.begin(root, "corpus.Extract")
	docs, err := g.extract(arch, workers)
	sp.end()
	if err != nil {
		return nil, err
	}

	sp = tr.begin(root, "search.Add")
	for _, d := range docs {
		g.ix.Add(d.body)
		g.urls = append(g.urls, d.canonical)
		g.qual = append(g.qual, est.Q[d.ai])
		g.pr = append(g.pr, cur[d.ai])
	}
	sp.end()
	if g.ix.NumDocs() == 0 {
		return nil, fmt.Errorf("replay: no indexable documents under %q", label)
	}
	sp = tr.begin(root, "search.Freeze")
	g.ix.Freeze()
	sp.end()
	sp = tr.begin(root, "search.Shard")
	g.sx, err = g.ix.Shard(1, 0)
	sp.end()
	if err != nil {
		return nil, err
	}
	for _, q := range est.Q {
		g.meanQ += q
	}
	g.meanQ /= float64(len(est.Q))
	return g, nil
}

// extract is qualityserve's corpus pass: every document of the indexed
// crawl that is common to all crawls, with its canonical URL.
func (g *generation) extract(arch *pagestore.Store, workers int) ([]indexable, error) {
	return corpus.Extract(arch, func(d corpus.Doc) (indexable, bool) {
		if !strings.HasPrefix(d.Key, g.prefix) {
			return indexable{}, false
		}
		_, canonical := crawler.ExtractLinks(string(d.Body))
		if canonical == "" {
			canonical = d.Key[len(g.prefix):]
		}
		ai, ok := g.byURL[canonical]
		if !ok {
			return indexable{}, false
		}
		return indexable{canonical: canonical, body: string(d.Body), ai: ai}, true
	}, corpus.Options{Workers: workers})
}

// timeExtract times extract alone on a freshly opened archive.
func (g *generation) timeExtract(fx *fixture, workers int) (time.Duration, error) {
	arch, err := pagestore.Open(fx.archiveDir, pagestore.Options{})
	if err != nil {
		return 0, err
	}
	defer arch.Close()
	t0 := time.Now()
	_, err = g.extract(arch, workers)
	return time.Since(t0), err
}

// replayEstimate is quality.FromAlignedIncremental over all snapshots,
// unfolded into its public calls.
func replayEstimate(al *snapshot.Aligned, tr *tracer, parent *liveSpan) ([][]float64, *quality.Result, error) {
	opts := pagerank.IncrementalOptions{Options: pagerank.Options{Variant: pagerank.VariantPaper}}
	sp := tr.begin(parent, "snapshot.CSRs")
	csrs := al.CSRs()
	sp.end()
	ranks := make([][]float64, len(csrs))
	sp = tr.begin(parent, "pagerank.Compute")
	full, err := pagerank.Compute(csrs[0], opts.Options)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	if !full.Converged {
		return nil, nil, fmt.Errorf("replay: PageRank did not converge")
	}
	ranks[0] = full.Rank
	tr.count("pagerank.full_iters", full.Iterations)
	for k := 1; k < len(csrs); k++ {
		sp = tr.begin(parent, "graph.Diff")
		d, err := graph.Diff(csrs[k-1], csrs[k])
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		sp = tr.begin(parent, "pagerank.ComputeIncremental")
		inc, err := pagerank.ComputeIncremental(csrs[k], ranks[k-1], d, opts)
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		if !inc.Converged {
			return nil, nil, fmt.Errorf("replay: incremental PageRank did not converge")
		}
		ranks[k] = inc.Rank
		tr.count("pagerank.incremental_iters", inc.Iterations)
	}
	sp = tr.begin(parent, "quality.EstimateFromSeries")
	est, err := quality.EstimateFromSeries(ranks, estimatorConfig)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	return ranks, est, nil
}

// searchOptions is qualityserve's default ranking (rank=quality) at k.
func (g *generation) searchOptions(k int) search.Options {
	if nd := g.ix.NumDocs(); k > nd {
		k = nd
	}
	return search.Options{TopK: k, Authority: g.qual, AuthorityWeight: 0.7}
}

// allocMB returns the MiB f allocated.
func allocMB(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}
