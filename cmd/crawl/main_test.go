package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pagequality/internal/corpus"
	"pagequality/internal/crawler"
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

func TestCrawlCLIResumeFromCheckpoint(t *testing.T) {
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
	ts := startServer(t, sim)
	dir := t.TempDir()
	store := filepath.Join(dir, "s.pqs")
	ckpt := filepath.Join(dir, "crawl.ckpt")

	// Fabricate a mid-crawl checkpoint: the seed page already visited,
	// its links in the frontier.
	seeds, err := crawler.FetchSeeds(context.Background(), ts.Client(), ts.URL+"/seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	interrupt := make(chan struct{})
	close(interrupt) // interrupt immediately after the first wave
	partial, err := crawler.Crawl(crawler.Config{
		Seeds: seeds, Client: ts.Client(), Interrupt: interrupt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Checkpoint == nil {
		t.Skip("crawl finished before the interrupt landed")
	}
	if err := partial.Checkpoint.Save(ckpt); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := run(context.Background(), []string{
		"-seeds", ts.URL + "/seeds.txt", "-store", store,
		"-checkpoint", ckpt, "-label", "t1", "-week", "0",
	}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "resuming from") {
		t.Fatalf("resume banner missing:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "appended snapshot t1") {
		t.Fatalf("completion missing:\n%s", buf.String())
	}
	// Completed run removes the checkpoint.
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("checkpoint not cleaned up: %v", err)
	}
	snaps, err := snapshot.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if snaps[0].Graph.NumNodes() == 0 {
		t.Fatal("empty resumed snapshot")
	}
}

// TestCrawlCLICancelSavesCheckpoint: cancelling run's context (what
// SIGINT and SIGTERM do) mid-crawl stops the crawl gracefully: the
// checkpoint is saved and no snapshot is appended.
func TestCrawlCLICancelSavesCheckpoint(t *testing.T) {
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
	dir := t.TempDir()
	store := filepath.Join(dir, "s.pqs")
	ckpt := filepath.Join(dir, "crawl.ckpt")

	var buf bytes.Buffer
	if err := run(ctx, []string{
		"-seed", ts.URL + "/p/0.html", "-store", store, "-checkpoint", ckpt, "-concurrency", "1",
	}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "checkpoint saved to") {
		t.Fatalf("no checkpoint saved:\n%s", buf.String())
	}
	resume, err := crawler.LoadCheckpoint(ckpt)
	if err != nil || resume == nil || len(resume.Frontier) == 0 {
		t.Fatalf("checkpoint %+v (%v): want a frontier to resume", resume, err)
	}
	if _, err := os.Stat(store); !os.IsNotExist(err) {
		t.Fatalf("an interrupted crawl wrote the store (stat: %v)", err)
	}
	if n := pages.Load(); n >= int64(sim.NumPages()) {
		t.Fatalf("%d of %d pages fetched: the crawl was not interrupted", n, sim.NumPages())
	}
}

// TestCrawlCLIRetryFlags drives the retry engine end to end from the
// CLI: with retries enabled a transiently failing page is recovered and
// counted; with -retries 1 it is dropped with a warning instead.
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
	if !strings.Contains(buf.String(), "1 URLs failed transiently and were dropped") {
		t.Fatalf("transient drop not warned:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "fetched 1 pages (1 errors, 0 retries") {
		t.Fatalf("stats wrong for -retries 1:\n%s", buf.String())
	}
}

// TestCrawlCLITransientCheckpointRetry checks the completed-with-leftovers
// path: a crawl that exhausts retries on one URL still writes its
// snapshot, saves the failures to the checkpoint, and a re-run against
// the recovered site fetches exactly the leftover URL.
func TestCrawlCLITransientCheckpointRetry(t *testing.T) {
	healthy := false
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/":
			fmt.Fprint(w, `<a href="/down">d</a>`)
		case "/down":
			mu.Lock()
			up := healthy
			mu.Unlock()
			if !up {
				http.Error(w, "down", http.StatusServiceUnavailable)
				return
			}
			fmt.Fprint(w, "back up")
		case "/robots.txt":
			fmt.Fprint(w, "User-agent: *\nDisallow:\n")
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()
	dir := t.TempDir()
	store := filepath.Join(dir, "s.pqs")
	ckpt := filepath.Join(dir, "crawl.ckpt")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{
		"-seed", ts.URL + "/", "-store", store, "-checkpoint", ckpt,
		"-retries", "2", "-retry-base", "1ms", "-retry-max", "2ms", "-label", "t1", "-week", "0",
	}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "checkpoint saved to") {
		t.Fatalf("leftover checkpoint not saved:\n%s", buf.String())
	}
	snaps, err := snapshot.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].Graph.NumNodes() != 1 {
		t.Fatalf("first snapshot wrong: %d snaps", len(snaps))
	}

	mu.Lock()
	healthy = true
	mu.Unlock()
	buf.Reset()
	if err := run(context.Background(), []string{
		"-seed", ts.URL + "/", "-store", store, "-checkpoint", ckpt,
		"-retries", "2", "-retry-base", "1ms", "-label", "t2", "-week", "4",
	}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "resuming from") {
		t.Fatalf("checkpoint not resumed:\n%s", buf.String())
	}
	// Stats are cumulative across the resume: 1 prior page + the leftover,
	// with the prior run's error and retry still on the books.
	if !strings.Contains(buf.String(), "fetched 2 pages (1 errors, 1 retries") {
		t.Fatalf("re-run should fetch only the leftover URL:\n%s", buf.String())
	}
	snaps, err = snapshot.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("store has %d snapshots", len(snaps))
	}
	if _, ok := snaps[1].Graph.Lookup(ts.URL + "/down"); !ok {
		t.Fatal("re-run snapshot missing the recovered URL")
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("clean completion left the checkpoint behind (err=%v)", err)
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
