package crawler

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pagequality/internal/graph"
	"pagequality/internal/snapshot"
	"pagequality/internal/webcorpus"
	"pagequality/internal/webserver"
)

// testCorpus grows a small corpus and returns its graph.
func testCorpus(t *testing.T, seed int64) *webcorpus.Sim {
	t.Helper()
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = 8
	cfg.InitialPagesPerSite = 6
	cfg.Users = 2000
	cfg.VisitRate = 2000
	cfg.LinkProb = 0.2
	cfg.BirthRate = 2
	cfg.BurnInWeeks = 15
	cfg.Seed = seed
	sim, err := webcorpus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// serve starts an httptest server over the simulation's current graph.
func serve(t *testing.T, sim *webcorpus.Sim) (*httptest.Server, *graph.Graph) {
	t.Helper()
	g := sim.Graph().Clone()
	srv, err := webserver.New(g, sim.AllTexts(webcorpus.TextOptions{MinWords: 10, MaxWords: 20}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, g
}

// reachable computes the set of nodes reachable from the per-site roots
// (lowest node id per site), which is exactly what the crawler can see.
func reachable(g *graph.Graph) map[graph.NodeID]bool {
	seenSite := map[int32]bool{}
	var queue []graph.NodeID
	seen := map[graph.NodeID]bool{}
	for i := 0; i < g.NumNodes(); i++ {
		site := g.Page(graph.NodeID(i)).Site
		if !seenSite[site] {
			seenSite[site] = true
			queue = append(queue, graph.NodeID(i))
			seen[graph.NodeID(i)] = true
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.OutLinks(v) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return seen
}

func TestCrawlReconstructsReachableGraph(t *testing.T) {
	sim := testCorpus(t, 1)
	ts, g := serve(t, sim)

	seeds, err := FetchSeeds(context.Background(), ts.Client(), ts.URL+"/seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 {
		t.Fatal("no seeds")
	}
	res, err := Crawl(Config{Seeds: seeds, Client: ts.Client(), Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := reachable(g)
	if res.Stats.Fetched != len(want) {
		t.Fatalf("fetched %d pages, reachable set has %d", res.Stats.Fetched, len(want))
	}
	if res.Graph.NumNodes() != len(want) {
		t.Fatalf("crawled graph has %d nodes, want %d", res.Graph.NumNodes(), len(want))
	}
	if res.Stats.Errors != 0 {
		t.Fatalf("%d fetch errors", res.Stats.Errors)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	// Canonical URLs must match the corpus URLs, and out-degrees must
	// equal the induced subgraph's.
	for id := range want {
		url := g.Page(id).URL
		cid, ok := res.Graph.Lookup(url)
		if !ok {
			t.Fatalf("crawl missing page %s", url)
		}
		wantDeg := 0
		for _, to := range g.OutLinks(id) {
			if want[to] {
				wantDeg++
			}
		}
		if got := res.Graph.OutDegree(cid); got != wantDeg {
			t.Fatalf("page %s out-degree %d, want %d", url, got, wantDeg)
		}
		// Edge targets match exactly.
		for _, to := range res.Graph.OutLinks(cid) {
			toURL := res.Graph.Page(to).URL
			origTo, ok := g.Lookup(toURL)
			if !ok || !g.HasLink(id, origTo) {
				t.Fatalf("crawl invented edge %s -> %s", url, toURL)
			}
		}
	}
}

func TestCrawlDeterministicGraph(t *testing.T) {
	sim := testCorpus(t, 2)
	ts, _ := serve(t, sim)
	seeds, err := FetchSeeds(context.Background(), ts.Client(), ts.URL+"/seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Crawl(Config{Seeds: seeds, Client: ts.Client(), Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Crawl(Config{Seeds: seeds, Client: ts.Client(), Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Node order is canonical-URL-sorted, so the binary encodings must be
	// identical regardless of fetch order.
	if string(a.Graph.AppendBinary(nil)) != string(b.Graph.AppendBinary(nil)) {
		t.Fatal("crawl graph depends on fetch concurrency")
	}
}

func TestCrawlPageCaps(t *testing.T) {
	sim := testCorpus(t, 3)
	ts, _ := serve(t, sim)
	seeds, err := FetchSeeds(context.Background(), ts.Client(), ts.URL+"/seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Crawl(Config{Seeds: seeds, Client: ts.Client(), MaxPages: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Fetched > 10 {
		t.Fatalf("MaxPages violated: fetched %d", res.Stats.Fetched)
	}
	if res.Stats.SkippedCaps == 0 {
		t.Fatal("cap never triggered")
	}
	// Per-site cap: everything is one host here, so it behaves like a
	// total cap.
	res, err = Crawl(Config{Seeds: seeds, Client: ts.Client(), MaxPagesPerSite: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Fetched > 5 {
		t.Fatalf("MaxPagesPerSite violated: fetched %d", res.Stats.Fetched)
	}
}

func TestCrawlHandles404(t *testing.T) {
	sim := testCorpus(t, 4)
	ts, _ := serve(t, sim)
	seeds, err := FetchSeeds(context.Background(), ts.Client(), ts.URL+"/seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, ts.URL+"/p/999999.html") // missing page
	res, err := Crawl(Config{Seeds: seeds, Client: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Errors != 1 {
		t.Fatalf("errors = %d, want 1", res.Stats.Errors)
	}
	if res.Stats.Fetched == 0 {
		t.Fatal("crawl gave up after the 404")
	}
}

func TestCrawlStaysOnHost(t *testing.T) {
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("crawler escaped to a foreign host")
	}))
	defer other.Close()
	main := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `<a href="%s/lure">offsite</a><a href="/self">self</a>`, other.URL)
	}))
	defer main.Close()
	res, err := Crawl(Config{Seeds: []string{main.URL + "/"}, Client: main.Client()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Fetched != 2 { // "/" and "/self"
		t.Fatalf("fetched %d, want 2", res.Stats.Fetched)
	}
}

func TestCrawlFragmentAndCycleHandling(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/":
			fmt.Fprint(w, `<a href="/a#frag">a</a><a href="/a">a2</a>`)
		case "/a":
			fmt.Fprint(w, `<a href="/">back</a><a href="/a">self</a>`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	res, err := Crawl(Config{Seeds: []string{srv.URL + "/"}, Client: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Fetched != 2 {
		t.Fatalf("fetched %d, want 2 (fragment dedup failed?)", res.Stats.Fetched)
	}
	// Self-link and cycle survive as graph edges (self-links dropped by
	// the graph layer).
	if res.Graph.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2 (/->a, a->/)", res.Graph.NumEdges())
	}
}

// TestCrawlRedirectBaseResolution pins the redirect bugfix: relative
// links on a redirected page must resolve against the URL the response
// finally came from, not the one that was requested — otherwise every
// relative href points at a phantom sibling of the request URL.
func TestCrawlRedirectBaseResolution(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/start":
			http.Redirect(w, r, "/dir/index.html", http.StatusFound)
		case "/dir/index.html":
			fmt.Fprint(w, `<a href="page2.html">next</a>`)
		case "/dir/page2.html":
			fmt.Fprint(w, "leaf")
		default:
			// The buggy resolution would ask for /page2.html.
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	res, err := Crawl(Config{Seeds: []string{srv.URL + "/start"}, Client: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Errors != 0 {
		t.Fatalf("%d fetch errors: relative link resolved against the wrong base", res.Stats.Errors)
	}
	if res.Stats.Fetched != 2 {
		t.Fatalf("fetched %d, want 2 (/start and /dir/page2.html)", res.Stats.Fetched)
	}
	if _, ok := res.Graph.Lookup(srv.URL + "/dir/page2.html"); !ok {
		t.Fatal("redirect target's relative link missing from the graph")
	}
}

// TestBudgetRefundOnFailure pins the budget-leak bugfix: a URL that fails
// permanently must hand its MaxPages slot back, so later-discovered pages
// can still be admitted.
func TestBudgetRefundOnFailure(t *testing.T) {
	pages := map[string]string{
		"/":      `<a href="/good1">g</a><a href="/dead">d</a>`,
		"/good1": `<a href="/good2">g2</a>`,
		"/good2": "leaf",
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if body, ok := pages[r.URL.Path]; ok {
			fmt.Fprint(w, body)
			return
		}
		http.NotFound(w, r)
	}))
	defer srv.Close()
	// Concurrency 1 fixes the order: /dead is popped (and fails) before
	// /good1 discovers /good2, so the refunded slot is what admits it.
	for _, cfg := range []Config{
		{Seeds: []string{srv.URL + "/"}, Client: srv.Client(), Concurrency: 1, MaxPages: 3},
		{Seeds: []string{srv.URL + "/"}, Client: srv.Client(), Concurrency: 1, MaxPagesPerSite: 3},
	} {
		res, err := Crawl(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Fetched != 3 {
			t.Fatalf("fetched %d of 3 good pages: failed fetch still holds budget (caps %d/%d)",
				res.Stats.Fetched, cfg.MaxPages, cfg.MaxPagesPerSite)
		}
		if res.Stats.Errors != 1 || res.Stats.SkippedCaps != 0 {
			t.Fatalf("stats = %+v", res.Stats)
		}
	}
}

// TestCrawlSkipsOverlongURL: a page whose URL the graph format cannot
// read back (70 KiB) is fetched but left out of the graph like an
// unfetched link target — no node, no edge to or from it — so the
// snapshot the crawl writes reads back.
func TestCrawlSkipsOverlongURL(t *testing.T) {
	long := "/" + strings.Repeat("x", 70<<10)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/":
			fmt.Fprintf(w, `<a href="%s">long</a><a href="/b">b</a>`, long)
		case long:
			fmt.Fprint(w, `<a href="/b">b</a><a href="/">home</a>`)
		case "/b":
			fmt.Fprint(w, `<a href="/">home</a>`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	res, err := Crawl(Config{Seeds: []string{srv.URL + "/"}, Client: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Fetched != 3 || res.Stats.Errors != 0 {
		t.Fatalf("stats %+v, want 3 fetched (the long URL too), 0 errors", res.Stats)
	}
	if res.Graph.NumNodes() != 2 || res.Graph.NumEdges() != 2 {
		t.Fatalf("graph has %d nodes, %d edges; want 2, 2 (/ <-> /b)", res.Graph.NumNodes(), res.Graph.NumEdges())
	}
	path := filepath.Join(t.TempDir(), "web.pqs")
	if err := snapshot.WriteFile(path, []snapshot.Snapshot{{Label: "t1", Graph: res.Graph}}); err != nil {
		t.Fatal(err)
	}
	snaps, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatalf("the crawl's snapshot does not read back: %v", err)
	}
	if len(snaps) != 1 || snaps[0].Graph.NumNodes() != 2 {
		t.Fatalf("read back %d snapshots", len(snaps))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Crawl(Config{}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("no seeds accepted")
	}
	if _, err := Crawl(Config{Seeds: []string{"http://x/"}, Concurrency: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("negative concurrency accepted")
	}
	if _, err := Crawl(Config{Seeds: []string{"://bad"}}); err == nil {
		t.Fatal("unparseable seed accepted")
	}
	if _, err := Crawl(Config{Seeds: []string{"relative/path"}}); err == nil {
		t.Fatal("relative seed accepted")
	}
}

func TestFetchSeedsErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/empty.txt":
			fmt.Fprint(w, "\n# comment only\n")
		case "/ok.txt":
			fmt.Fprint(w, "# roots\n/p/0.html\n/p/1.html\n")
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	if _, err := FetchSeeds(context.Background(), srv.Client(), srv.URL+"/missing.txt"); err == nil {
		t.Fatal("404 seed list accepted")
	}
	if _, err := FetchSeeds(context.Background(), srv.Client(), srv.URL+"/empty.txt"); err == nil {
		t.Fatal("empty seed list accepted")
	}
	seeds, err := FetchSeeds(context.Background(), srv.Client(), srv.URL+"/ok.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 2 || seeds[0] != srv.URL+"/p/0.html" {
		t.Fatalf("seeds = %v", seeds)
	}
}

// TestOnFetchAndAssemble archives every fetched body via the OnFetch hook
// and rebuilds the graph offline with Assemble; the re-extracted graph
// must be byte-identical to the live crawl's.
func TestOnFetchAndAssemble(t *testing.T) {
	sim := testCorpus(t, 5)
	ts, _ := serve(t, sim)
	seeds, err := FetchSeeds(context.Background(), ts.Client(), ts.URL+"/seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var docs []Document
	res, err := Crawl(Config{
		Seeds:  seeds,
		Client: ts.Client(),
		OnFetch: func(u string, body []byte) {
			mu.Lock()
			docs = append(docs, Document{FetchURL: u, Body: append([]byte(nil), body...)})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != res.Stats.Fetched {
		t.Fatalf("archived %d of %d fetched docs", len(docs), res.Stats.Fetched)
	}
	rebuilt, err := Assemble(docs)
	if err != nil {
		t.Fatal(err)
	}
	if string(rebuilt.Graph.AppendBinary(nil)) != string(res.Graph.AppendBinary(nil)) {
		t.Fatal("offline re-extraction differs from the live crawl graph")
	}
}

func TestAssembleBadDocument(t *testing.T) {
	if _, err := Assemble([]Document{{FetchURL: "://bad", Body: nil}}); err == nil {
		t.Fatal("unparseable fetch URL accepted")
	}
	res, err := Assemble(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumNodes() != 0 {
		t.Fatal("empty assemble produced nodes")
	}
}
