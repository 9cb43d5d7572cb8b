package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pagequality/internal/corpus"
	"pagequality/internal/graph"
	"pagequality/internal/pagestore"
	"pagequality/internal/snapshot"
	"pagequality/internal/webcorpus"
	"pagequality/internal/webserver"
)

func startServer(t *testing.T, sim *webcorpus.Sim) *httptest.Server {
	t.Helper()
	srv, err := webserver.New(sim.Graph().Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func TestCrawlCLIAppendsSnapshots(t *testing.T) {
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = 6
	cfg.InitialPagesPerSite = 5
	cfg.Users = 2000
	cfg.VisitRate = 2000
	cfg.LinkProb = 0.2
	cfg.BirthRate = 1
	cfg.BurnInWeeks = 12
	cfg.Seed = 9
	sim, err := webcorpus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(t.TempDir(), "crawled.pqs")

	// First crawl at week 0.
	ts1 := startServer(t, sim)
	var buf bytes.Buffer
	if err := run(context.Background(), []string{
		"-seeds", ts1.URL + "/seeds.txt", "-store", store, "-label", "t1", "-week", "0",
	}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "appended snapshot t1") {
		t.Fatalf("missing confirmation:\n%s", buf.String())
	}

	// Evolve and crawl again (defaults: label t2, week 4).
	sim.AdvanceTo(4)
	ts2 := startServer(t, sim)
	buf.Reset()
	if err := run(context.Background(), []string{"-seeds", ts2.URL + "/seeds.txt", "-store", store}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "appended snapshot t2 (week 4.0)") {
		t.Fatalf("default label/week wrong:\n%s", buf.String())
	}

	snaps, err := snapshot.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("store has %d snapshots", len(snaps))
	}
	// Crawled snapshots align on canonical URLs across server instances.
	al, err := snapshot.Align(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if al.NumPages() == 0 {
		t.Fatal("no common pages across crawls")
	}
	for _, u := range al.URLs {
		if !strings.Contains(u, ".example/") {
			t.Fatalf("aligned URL %q is not canonical", u)
		}
	}
}

func TestCrawlCLISeedFlagAndCaps(t *testing.T) {
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = 4
	cfg.InitialPagesPerSite = 5
	cfg.Users = 2000
	cfg.VisitRate = 2000
	cfg.LinkProb = 0.2
	cfg.BurnInWeeks = 10
	cfg.Seed = 2
	sim, err := webcorpus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, sim)
	store := filepath.Join(t.TempDir(), "s.pqs")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-seed", ts.URL + "/p/0.html", "-store", store, "-maxpages", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	snaps, err := snapshot.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if snaps[0].Graph.NumNodes() > 3 {
		t.Fatalf("maxpages violated: %d nodes", snaps[0].Graph.NumNodes())
	}
}

func TestCrawlCLIErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{}, &buf); err == nil {
		t.Fatal("no seeds accepted")
	}
	if err := run(context.Background(), []string{"-seed", "http://x/", "-seeds", "http://x/s.txt"}, &buf); err == nil {
		t.Fatal("both seed flags accepted")
	}
	// Out-of-order week against an existing store.
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = 2
	cfg.InitialPagesPerSite = 3
	cfg.Users = 2000
	cfg.VisitRate = 2000
	cfg.BurnInWeeks = 2
	cfg.Seed = 1
	sim, err := webcorpus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, sim)
	store := filepath.Join(t.TempDir(), "s.pqs")
	if err := run(context.Background(), []string{"-seeds", ts.URL + "/seeds.txt", "-store", store, "-week", "8"}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-seeds", ts.URL + "/seeds.txt", "-store", store, "-week", "4"}, &buf); err == nil {
		t.Fatal("time-travelling snapshot accepted")
	}
}

// TestCrawlCLIRefusesEqualWeek: snapshot.Align needs strictly increasing
// times, so a second crawl at the last stored week must be refused and
// leave the store file untouched, not append a store nothing can read.
func TestCrawlCLIRefusesEqualWeek(t *testing.T) {
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = 2
	cfg.InitialPagesPerSite = 3
	cfg.Users = 2000
	cfg.VisitRate = 2000
	cfg.BurnInWeeks = 2
	cfg.Seed = 1
	sim, err := webcorpus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, sim)
	store := filepath.Join(t.TempDir(), "s.pqs")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-seeds", ts.URL + "/seeds.txt", "-store", store, "-week", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), []string{"-seeds", ts.URL + "/seeds.txt", "-store", store, "-week", "4"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "does not follow") {
		t.Fatalf("equal week: err = %v", err)
	}
	after, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("refused crawl modified the store")
	}
	if snaps, err := snapshot.ReadFile(store); err != nil || len(snaps) != 1 {
		t.Fatalf("store after refusal: %d snapshots, %v", len(snaps), err)
	}
}

func TestCrawlCLIArchivesBodies(t *testing.T) {
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = 4
	cfg.InitialPagesPerSite = 4
	cfg.Users = 2000
	cfg.VisitRate = 2000
	cfg.LinkProb = 0.2
	cfg.BurnInWeeks = 8
	cfg.Seed = 7
	sim, err := webcorpus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, sim)
	dir := t.TempDir()
	store := filepath.Join(dir, "s.pqs")
	archive := filepath.Join(dir, "pages")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{
		"-seeds", ts.URL + "/seeds.txt", "-store", store,
		"-archive", archive, "-label", "t1", "-week", "0",
	}, &buf); err != nil {
		t.Fatal(err)
	}
	arch, err := pagestore.Open(archive, pagestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	snaps, err := snapshot.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Len() != snaps[0].Graph.NumNodes() {
		t.Fatalf("archived %d bodies for %d crawled pages", arch.Len(), snaps[0].Graph.NumNodes())
	}
	keys, err := corpus.ExtractStored(arch, func(r pagestore.StoredRecord) (string, bool, error) {
		return r.Key, true, nil
	}, corpus.Options{KeyPrefix: "t1/"})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != arch.Len() {
		t.Fatalf("archive keys not label-prefixed: %v", keys[:1])
	}
	// The archived bodies are real HTML.
	_, body, err := arch.Get(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "<html") && !strings.Contains(string(body), "<!DOCTYPE") {
		t.Fatalf("archived body is not HTML: %q", body[:min(len(body), 60)])
	}
}

// TestCrawlCLIRefusesUnsplittableLabel: corpus.SplitKey splits an
// archive key at its first '/', so a label holding one would archive
// every body under another label. The crawl refuses it before any fetch,
// names it, and writes neither the store nor the archive.
func TestCrawlCLIRefusesUnsplittableLabel(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		fmt.Fprint(w, "<html>leaf</html>")
	}))
	defer ts.Close()
	dir := t.TempDir()
	store := filepath.Join(dir, "s.pqs")
	archive := filepath.Join(dir, "pages")
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-seed", ts.URL + "/", "-store", store, "-archive", archive, "-label", "a/b"}, &buf)
	if err == nil || !strings.Contains(err.Error(), `"a/b"`) {
		t.Fatalf("label a/b: err = %v, want a refusal naming it", err)
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("the refused crawl made %d requests", n)
	}
	for _, p := range []string{store, archive} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("the refused crawl wrote %s (stat: %v)", p, err)
		}
	}
}

// interruptFixture is the five-site corpus the interrupt tests crawl,
// with the server that renders it.
func interruptFixture(t *testing.T) (*webcorpus.Sim, *webserver.Server) {
	t.Helper()
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = 5
	cfg.InitialPagesPerSite = 5
	cfg.Users = 2000
	cfg.VisitRate = 2000
	cfg.LinkProb = 0.2
	cfg.BurnInWeeks = 10
	cfg.Seed = 12
	sim, err := webcorpus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := webserver.New(sim.Graph().Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return sim, srv
}

// TestCrawlCLIResumeFromArchive replays an interrupted crawl: run's
// context is cancelled mid-crawl (what SIGINT and SIGTERM do), and the
// same command run again resumes from the documents archived under the
// label. It appends the store an uninterrupted crawl writes, byte for
// byte, and fetches no page twice. A re-run at another week is refused.
func TestCrawlCLIResumeFromArchive(t *testing.T) {
	_, srv := interruptFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	hits := map[string]int{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/p/") {
			mu.Lock()
			hits[r.URL.Path]++
			if len(hits) == 5 {
				cancel() // the signal arrives while the fifth page is in flight
			}
			mu.Unlock()
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	dir := t.TempDir()
	args := func(name string, extra ...string) []string {
		return append([]string{"-seeds", ts.URL + "/seeds.txt", "-store", filepath.Join(dir, name+".pqs"),
			"-archive", filepath.Join(dir, name), "-label", "t1", "-week", "0"}, extra...)
	}

	var buf bytes.Buffer
	if err := run(ctx, args("resumed"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "re-run to resume") {
		t.Fatalf("interrupt not reported:\n%s", buf.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "resumed.pqs")); !os.IsNotExist(err) {
		t.Fatalf("an interrupted crawl wrote the store (stat: %v)", err)
	}
	err := run(context.Background(), args("resumed", "-week", "4"), &buf)
	if err == nil || !strings.Contains(err.Error(), "archived at week 0") {
		t.Fatalf("resume at another week: err = %v", err)
	}
	buf.Reset()
	if err := run(context.Background(), args("resumed"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "resuming t1 from") {
		t.Fatalf("no resume:\n%s", buf.String())
	}
	mu.Lock()
	for path, n := range hits {
		if n > 1 {
			t.Errorf("%s fetched %d times", path, n)
		}
	}
	mu.Unlock()

	if err := run(context.Background(), args("whole"), &buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(filepath.Join(dir, "resumed.pqs"))
	if err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(filepath.Join(dir, "whole.pqs"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, whole) {
		t.Fatal("the resumed crawl's store differs from the uninterrupted crawl's")
	}
	if a, b := archivedURLs(t, filepath.Join(dir, "resumed")), archivedURLs(t, filepath.Join(dir, "whole")); !slices.Equal(a, b) {
		t.Fatalf("the resumed crawl archived %d URLs, the uninterrupted one %d", len(a), len(b))
	}
}

// archivedURLs lists the URLs archived under label t1 in dir.
func archivedURLs(t *testing.T, dir string) []string {
	t.Helper()
	arch, err := pagestore.Open(dir, pagestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	docs, _, err := corpus.LabelDocuments(arch, "t1")
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, len(docs))
	for i, d := range docs {
		urls[i] = d.FetchURL
	}
	return urls
}

// TestCrawlCLICancelWithoutArchive: cancelling run's context mid-crawl
// without -archive stops the crawl gracefully, keeps nothing, says so,
// and appends no snapshot.
func TestCrawlCLICancelWithoutArchive(t *testing.T) {
	sim, srv := interruptFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var pages atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/p/") && pages.Add(1) == 2 {
			cancel() // the signal arrives while the second page is in flight
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	store := filepath.Join(t.TempDir(), "s.pqs")

	var buf bytes.Buffer
	err := run(ctx, []string{"-seed", ts.URL + "/p/0.html", "-store", store, "-concurrency", "1"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "nothing was kept") {
		t.Fatalf("interrupted crawl: err = %v, want it to say nothing was kept", err)
	}
	if _, err := os.Stat(store); !os.IsNotExist(err) {
		t.Fatalf("an interrupted crawl wrote the store (stat: %v)", err)
	}
	if n := pages.Load(); n >= int64(sim.NumPages()) {
		t.Fatalf("%d of %d pages fetched: the crawl was not interrupted", n, sim.NumPages())
	}
}

// TestCrawlCLIRefusesStoredLabel: a label the store already holds names
// a finished crawl, so a crawl under it is refused before any fetch,
// even at a later week, and the store is left as it was.
func TestCrawlCLIRefusesStoredLabel(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		fmt.Fprint(w, "<html>leaf</html>")
	}))
	defer ts.Close()
	store := filepath.Join(t.TempDir(), "s.pqs")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-seed", ts.URL + "/", "-store", store, "-label", "t1", "-week", "0"}, &buf); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	requests.Store(0)
	err = run(context.Background(), []string{"-seed", ts.URL + "/", "-store", store, "-label", "t1", "-week", "4"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "already holds snapshot t1") {
		t.Fatalf("stored label: err = %v", err)
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("the refused crawl made %d requests", n)
	}
	if after, err := os.ReadFile(store); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("the refused crawl changed the store (%v)", err)
	}
}

// TestCrawlCLIRefusesNonFiniteWeek: a week that is NaN or infinite would
// let any later week pass the store's order check, so it is refused
// before any fetch and no store is written.
func TestCrawlCLIRefusesNonFiniteWeek(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		fmt.Fprint(w, "<html>leaf</html>")
	}))
	defer ts.Close()
	store := filepath.Join(t.TempDir(), "s.pqs")
	var buf bytes.Buffer
	for _, week := range []string{"NaN", "+Inf"} {
		err := run(context.Background(), []string{"-seed", ts.URL + "/", "-store", store, "-week", week}, &buf)
		if err == nil || !strings.Contains(err.Error(), "not finite") {
			t.Fatalf("-week %s: err = %v", week, err)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("the refused crawls made %d requests", n)
	}
	if _, err := os.Stat(store); !os.IsNotExist(err) {
		t.Fatalf("a refused crawl wrote the store (%v)", err)
	}
}

// TestCrawlCLIRetryFlags drives the retry engine end to end from the
// CLI: with retries enabled a transiently failing page is recovered and
// counted; with -retries 1 it is dropped and counted as an error.
func TestCrawlCLIRetryFlags(t *testing.T) {
	flakySite := func() *httptest.Server {
		failed := false
		var mu sync.Mutex
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/":
				fmt.Fprint(w, `<a href="/flaky">f</a>`)
			case "/flaky":
				mu.Lock()
				first := !failed
				failed = true
				mu.Unlock()
				if first {
					http.Error(w, "busy", http.StatusServiceUnavailable)
					return
				}
				fmt.Fprint(w, "recovered")
			case "/robots.txt":
				fmt.Fprint(w, "User-agent: *\nDisallow:\n")
			default:
				http.NotFound(w, r)
			}
		}))
	}

	ts := flakySite()
	defer ts.Close()
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(context.Background(), []string{
		"-seed", ts.URL + "/", "-store", filepath.Join(dir, "a.pqs"),
		"-retries", "3", "-retry-base", "1ms", "-retry-max", "2ms",
	}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fetched 2 pages (0 errors, 1 retries") {
		t.Fatalf("retry not reported:\n%s", buf.String())
	}

	ts2 := flakySite()
	defer ts2.Close()
	buf.Reset()
	if err := run(context.Background(), []string{
		"-seed", ts2.URL + "/", "-store", filepath.Join(dir, "b.pqs"),
		"-retries", "1",
	}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fetched 1 pages (1 errors, 0 retries") {
		t.Fatalf("stats wrong for -retries 1:\n%s", buf.String())
	}
}

// TestCrawlCLIArchiveFailureFailsRun: a document the archive refuses (a
// URL whose key "<label>/<url>" is past pagestore.MaxKeyLen) used to be a
// line on stdout and exit status 0. The run now fails with the count,
// after the snapshot is written. The graph drops the page too, so the
// snapshot holds the two pages the archive does.
func TestCrawlCLIArchiveFailureFailsRun(t *testing.T) {
	long := "/" + strings.Repeat("a", pagestore.MaxKeyLen)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/":
			fmt.Fprintf(w, `<html><a href="/ok">ok</a> <a href="%s">long</a></html>`, long)
		case "/ok", long:
			fmt.Fprint(w, "<html>leaf</html>")
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()
	dir := t.TempDir()
	store := filepath.Join(dir, "s.pqs")
	archive := filepath.Join(dir, "pages")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-seed", ts.URL + "/", "-store", store, "-archive", archive, "-label", "t1", "-week", "0",
	}, &buf)
	if err == nil || !strings.Contains(err.Error(), "1 documents could not be archived") {
		t.Fatalf("run error = %v, want the one failed Put reported\n%s", err, buf.String())
	}
	snaps, err := snapshot.ReadFile(store)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	if n := snaps[0].Graph.NumNodes(); n != 2 {
		t.Fatalf("snapshot has %d pages, want 2", n)
	}
	arch, err := pagestore.Open(archive, pagestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	if arch.Len() != 2 {
		t.Fatalf("archive holds %d documents, want the 2 whose keys fit", arch.Len())
	}
}

// TestCrawlCLIArchivesLongestURL is the boundary between the graph's URL
// limit and the archive's key limit: a page whose URL is graph.MaxURLLen
// bytes, the longest a snapshot holds, is archived under the default
// label and reads back; a URL one byte longer is dropped by the crawler,
// as before. Nothing is refused, so the run succeeds.
func TestCrawlCLIArchivesLongestURL(t *testing.T) {
	var longest, over string
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/":
			fmt.Fprintf(w, `<html><a href="%s">longest</a> <a href="%s">over</a></html>`, longest, over)
		case longest, over:
			fmt.Fprint(w, "<html>leaf</html>")
		default:
			http.NotFound(w, r)
		}
	}))
	base := "http://" + ts.Listener.Addr().String()
	longest = "/" + strings.Repeat("a", graph.MaxURLLen-len(base)-1)
	over = longest + "b"
	ts.Start()
	defer ts.Close()
	dir := t.TempDir()
	store := filepath.Join(dir, "s.pqs")
	archive := filepath.Join(dir, "pages")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-seed", ts.URL + "/", "-store", store, "-archive", archive}, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	snaps, err := snapshot.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	g := snaps[0].Graph
	if len(base+longest) != graph.MaxURLLen || g.NumNodes() != 2 {
		t.Fatalf("snapshot has %d pages, want the root and the %d-byte URL", g.NumNodes(), len(base+longest))
	}
	if _, ok := g.Lookup(base + longest); !ok {
		t.Fatal("the MaxURLLen-byte URL is not in the snapshot")
	}
	if _, ok := g.Lookup(base + over); ok {
		t.Fatal("a URL past MaxURLLen is in the snapshot")
	}
	arch, err := pagestore.Open(archive, pagestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	_, body, err := arch.Get(snaps[0].Label + "/" + base + longest)
	if err != nil || string(body) != "<html>leaf</html>" {
		t.Fatalf("archived body %q, %v", body, err)
	}
}

// TestCrawlCLIReportsRobotsSkips checks that the summary line counts the
// links robots.txt disallowed: page 1 is linked from pages 0 and 2 and
// disallowed, so it is skipped twice and never fetched.
func TestCrawlCLIReportsRobotsSkips(t *testing.T) {
	g := graph.New(3)
	for i := 0; i < 3; i++ {
		if _, err := g.AddPage(graph.Page{URL: fmt.Sprintf("http://s.example/p/%d.html", i)}); err != nil {
			t.Fatal(err)
		}
	}
	g.AddLink(0, 1)
	g.AddLink(0, 2)
	g.AddLink(2, 1)
	srv, err := webserver.New(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetRobots([]string{"/p/1.html"})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-seed", ts.URL + "/p/0.html", "-store", filepath.Join(t.TempDir(), "s.pqs")}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 skipped by caps, 2 skipped by robots.txt): 2 nodes, 1 links") {
		t.Fatalf("robots skips not reported:\n%s", buf.String())
	}
}
