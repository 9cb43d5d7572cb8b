package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"pagequality/internal/crawler"
	"pagequality/internal/graph"
	"pagequality/internal/snapshot"
)

func storeFixture(t *testing.T) string {
	t.Helper()
	mk := func(n int) *graph.Graph {
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.MustAddPage(graph.Page{URL: fmt.Sprintf("http://s.example/p%d", i), Site: 0})
		}
		for i := 0; i < n-1; i++ {
			g.AddLink(graph.NodeID(i), graph.NodeID(i+1))
		}
		return g
	}
	path := filepath.Join(t.TempDir(), "web.pqs")
	if err := snapshot.WriteFile(path, []snapshot.Snapshot{
		{Label: "t1", Time: 0, Graph: mk(4)},
		{Label: "t2", Time: 4, Graph: mk(5)},
	}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestNewHandlerDefaultsToLast(t *testing.T) {
	path := storeFixture(t)
	h, info, err := newHandler(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info, "snapshot t2") || !strings.Contains(info, "5 pages") {
		t.Fatalf("info = %q", info)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := httpGet(ts.Client(), ts.URL+"/seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seeds status %d", resp.StatusCode)
	}
}

func TestNewHandlerLabelSelection(t *testing.T) {
	path := storeFixture(t)
	_, info, err := newHandler(path, "t1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info, "snapshot t1") || !strings.Contains(info, "4 pages") {
		t.Fatalf("info = %q", info)
	}
	if _, _, err := newHandler(path, "zz"); err == nil {
		t.Fatal("unknown label accepted")
	}
	if _, _, err := newHandler(filepath.Join(t.TempDir(), "none.pqs"), ""); err == nil {
		t.Fatal("missing store accepted")
	}
}

// TestServeThenCrawlRoundTrip closes the loop: a stored snapshot is
// served and re-crawled; the crawled graph matches the stored one.
func TestServeThenCrawlRoundTrip(t *testing.T) {
	path := storeFixture(t)
	h, _, err := newHandler(path, "t2")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	seeds, err := crawler.FetchSeeds(context.Background(), ts.Client(), ts.URL+"/seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	res, err := crawler.Crawl(crawler.Config{Seeds: seeds, Client: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumNodes() != 5 || res.Graph.NumEdges() != 4 {
		t.Fatalf("re-crawl got %d nodes, %d edges; want 5, 4",
			res.Graph.NumNodes(), res.Graph.NumEdges())
	}
	if _, ok := res.Graph.Lookup("http://s.example/p0"); !ok {
		t.Fatal("canonical URLs lost in round trip")
	}
}

func TestRunWiresListener(t *testing.T) {
	path := storeFixture(t)
	var buf bytes.Buffer
	called := false
	listen := func(_ context.Context, addr string, h http.Handler) error {
		called = true
		if addr != "127.0.0.1:0" || h == nil {
			t.Fatalf("listen(%q, %v)", addr, h)
		}
		return nil
	}
	if err := run(context.Background(), []string{"-in", path, "-addr", "127.0.0.1:0"}, &buf, listen); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("listener never invoked")
	}
	if !strings.Contains(buf.String(), "serving snapshot") {
		t.Fatalf("banner missing:\n%s", buf.String())
	}
}

// TestRunFaultFlags checks that the -fault-* flags wrap the site in the
// fault middleware: the banner advertises the config, a guaranteed-fault
// handler returns 429 with Retry-After, and bad rates are rejected.
func TestRunFaultFlags(t *testing.T) {
	path := storeFixture(t)
	var buf bytes.Buffer
	var captured http.Handler
	listen := func(_ context.Context, addr string, h http.Handler) error {
		captured = h
		return nil
	}
	if err := run(context.Background(), []string{
		"-in", path, "-addr", "127.0.0.1:0",
		"-fault-ratelimit", "1", "-fault-seed", "7",
	}, &buf, listen); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "[faults: err=0 ratelimit=1 timeout=0 latency=0s seed=7]") {
		t.Fatalf("banner missing fault config:\n%s", buf.String())
	}
	rec := httptest.NewRecorder()
	captured.ServeHTTP(rec, httptest.NewRequest("GET", "/seeds.txt", nil))
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("fault handler returned %d (Retry-After %q)", rec.Code, rec.Header().Get("Retry-After"))
	}
	if err := run(context.Background(), []string{"-in", path, "-fault-error", "1.5"}, &buf, listen); err == nil {
		t.Fatal("out-of-range fault rate accepted")
	}
}

// TestRunWithoutFaultFlagsServesDirectly pins the zero-cost default: no
// -fault-* flags means the raw site handler, no middleware and no banner
// suffix.
func TestRunWithoutFaultFlagsServesDirectly(t *testing.T) {
	path := storeFixture(t)
	var buf bytes.Buffer
	var captured http.Handler
	listen := func(_ context.Context, addr string, h http.Handler) error {
		captured = h
		return nil
	}
	if err := run(context.Background(), []string{"-in", path, "-addr", "127.0.0.1:0"}, &buf, listen); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "faults") {
		t.Fatalf("fault banner without fault flags:\n%s", buf.String())
	}
	rec := httptest.NewRecorder()
	captured.ServeHTTP(rec, httptest.NewRequest("GET", "/seeds.txt", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("seeds status %d", rec.Code)
	}
}

// httpGet issues a GET carrying an explicit context, so test traffic
// meets the same ctxhttp cancellation discipline as the serving stack.
func httpGet(c *http.Client, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return c.Do(req)
}
