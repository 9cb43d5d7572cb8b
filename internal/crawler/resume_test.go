package crawler

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"pagequality/internal/webcorpus"
	"pagequality/internal/webserver"
)

// TestInterruptAndResume is the resume property. At Concurrency 1, a
// crawl interrupted after its k-th archived document and resumed from
// every document it archived builds the uninterrupted crawl's graph,
// byte for byte, and fetches no page twice — for every k from 1 to N-1.
func TestInterruptAndResume(t *testing.T) {
	sim := testCorpus(t, 7)
	srv, err := webserver.New(sim.Graph().Clone(), sim.AllTexts(webcorpus.TextOptions{MinWords: 10, MaxWords: 20}))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	hits := map[string]int{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits[r.URL.Path]++
		mu.Unlock()
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	seeds, err := FetchSeeds(context.Background(), ts.Client(), ts.URL+"/seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	full, err := Crawl(Config{Seeds: seeds, Client: ts.Client(), Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := full.Graph.AppendBinary(nil)
	n := full.Stats.Fetched
	if n < 12 {
		t.Fatalf("corpus too small to interrupt meaningfully (%d pages)", n)
	}

	for k := 1; k < n; k++ {
		mu.Lock()
		clear(hits)
		mu.Unlock()
		// Concurrency 1 runs one archiver, and Crawl returns after its
		// last OnFetch call, so archived needs no lock.
		var archived []Document
		interrupt := make(chan struct{})
		first, err := Crawl(Config{
			Seeds: seeds, Client: ts.Client(), Concurrency: 1, Interrupt: interrupt,
			OnFetch: func(u string, body []byte) {
				archived = append(archived, Document{FetchURL: u, Body: body})
				if len(archived) == k {
					close(interrupt)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if k == 1 && (!first.Interrupted || len(archived) >= n) {
			t.Fatalf("k=1: the interrupt did not stop the crawl (%d of %d archived)", len(archived), n)
		}
		second, err := Crawl(Config{Seeds: seeds, Client: ts.Client(), Concurrency: 1, Archived: archived})
		if err != nil {
			t.Fatal(err)
		}
		if second.Interrupted || len(archived)+second.Stats.Fetched != n {
			t.Fatalf("k=%d: %d archived + %d fetched on resume, want %d", k, len(archived), second.Stats.Fetched, n)
		}
		if !bytes.Equal(second.Graph.AppendBinary(nil), want) {
			t.Fatalf("k=%d: the resumed graph differs from the uninterrupted crawl's", k)
		}
		for path, h := range hits {
			if h > 1 && path != "/robots.txt" {
				t.Fatalf("k=%d: %s fetched %d times", k, path, h)
			}
		}
	}
}

// TestResumeRespectsPerSiteCounts: archived documents hold page budget,
// so a resumed crawl fetches only what the caps leave after them.
func TestResumeRespectsPerSiteCounts(t *testing.T) {
	sim := testCorpus(t, 8)
	ts, _ := serve(t, sim)
	seeds, err := FetchSeeds(context.Background(), ts.Client(), ts.URL+"/seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var archived []Document
	full, err := Crawl(Config{Seeds: seeds, Client: ts.Client(), OnFetch: func(u string, body []byte) {
		mu.Lock()
		archived = append(archived, Document{FetchURL: u, Body: body})
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	// One server is one site: the caps leave one page after the archive.
	limit := full.Stats.Fetched/2 + 1
	sort.Slice(archived, func(a, b int) bool { return archived[a].FetchURL < archived[b].FetchURL })
	archived = archived[:limit-1]
	for _, cfg := range []Config{{MaxPagesPerSite: limit}, {MaxPages: limit}} {
		cfg.Seeds, cfg.Client, cfg.Archived = seeds, ts.Client(), archived
		res, err := Crawl(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Fetched != 1 || res.Graph.NumNodes() != limit {
			t.Fatalf("MaxPagesPerSite %d, MaxPages %d: fetched %d, %d nodes; want 1 and the cap %d",
				cfg.MaxPagesPerSite, cfg.MaxPages, res.Stats.Fetched, res.Graph.NumNodes(), limit)
		}
	}
}

// TestResumeRefetchesFailedURLs: a resume fetches every URL its archive
// lacks — one that failed transiently and one that answered 404 — and
// none that it holds, and the two runs' graph is the healthy crawl's.
func TestResumeRefetchesFailedURLs(t *testing.T) {
	pages := map[string]string{
		"/":      `<a href="/flaky">f</a><a href="/a">a</a><a href="/gone">g</a>`,
		"/flaky": `<a href="/b">b</a>`,
		"/a":     "leaf",
		"/b":     "leaf",
	}
	srv := newFlakyServer(http.StatusServiceUnavailable, pages, map[string]int{"/flaky": 1 << 30})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cfg := Config{Seeds: []string{ts.URL + "/"}, Client: ts.Client(), Retry: Retry{MaxAttempts: 2, Sleep: noSleep}}

	var mu sync.Mutex
	var archived []Document
	first := cfg
	first.OnFetch = func(u string, body []byte) {
		mu.Lock()
		archived = append(archived, Document{FetchURL: u, Body: body})
		mu.Unlock()
	}
	phase1, err := Crawl(first)
	if err != nil {
		t.Fatal(err)
	}
	if phase1.Stats.Fetched != 2 || phase1.Stats.Errors != 2 { // "/" and "/a"; /flaky and /gone fail
		t.Fatalf("phase1 stats = %+v", phase1.Stats)
	}

	// The server recovers; the resume fetches what the archive lacks.
	srv.mu.Lock()
	srv.failures["/flaky"] = 0
	srv.mu.Unlock()
	resume := cfg
	resume.Archived = archived
	phase2, err := Crawl(resume)
	if err != nil {
		t.Fatal(err)
	}
	if phase2.Stats.Fetched != 2 || phase2.Stats.Errors != 1 { // /flaky and /b; /gone again
		t.Fatalf("phase2 stats = %+v", phase2.Stats)
	}
	for path, want := range map[string]int{"/": 1, "/a": 1, "/flaky": 3, "/b": 1, "/gone": 2} {
		if got := srv.hitCount(path); got != want {
			t.Fatalf("%s hit %d times, want %d", path, got, want)
		}
	}
	healthy, err := Crawl(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(phase2.Graph.AppendBinary(nil), healthy.Graph.AppendBinary(nil)) {
		t.Fatal("resumed graph differs from the healthy crawl's")
	}
}
