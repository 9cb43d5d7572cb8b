package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"pagequality/internal/crawler"
	"pagequality/internal/pagestore"
	"pagequality/internal/quality"
	"pagequality/internal/snapshot"
	"pagequality/internal/webcorpus"
	"pagequality/internal/webserver"
)

// buildFixture grows a corpus, crawls it three times over HTTP (archiving
// bodies under t1..t3), and writes the snapshot store — the exact inputs
// qualityserve consumes in production.
func buildFixture(t testing.TB) (storePath, archiveDir string) {
	t.Helper()
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = 10
	cfg.InitialPagesPerSite = 6
	cfg.Users = 3000
	cfg.VisitRate = 3000
	cfg.LinkProb = 0.2
	cfg.BirthRate = 2
	cfg.BurnInWeeks = 20
	cfg.Seed = 14
	sim, err := webcorpus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	storePath = filepath.Join(dir, "web.pqs")
	archiveDir = filepath.Join(dir, "pages")
	arch, err := pagestore.Open(archiveDir, pagestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()

	texts := func() []string { return sim.AllTexts(webcorpus.TextOptions{MinWords: 20, MaxWords: 40}) }
	var snaps []snapshot.Snapshot
	for k, week := range []float64{0, 4, 8} {
		sim.AdvanceTo(week)
		srv, err := webserver.New(sim.Graph().Clone(), texts())
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		seeds, err := crawler.FetchSeeds(context.Background(), ts.Client(), ts.URL+"/seeds.txt")
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("t%d", k+1)
		res, err := crawler.Crawl(crawler.Config{
			Seeds:  seeds,
			Client: ts.Client(),
			OnFetch: func(u string, body []byte) {
				if err := arch.Put(label+"/"+u, pagestore.Meta{FetchedAt: week, Status: 200}, body); err != nil {
					t.Error(err)
				}
			},
		})
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snapshot.Snapshot{Label: label, Time: week, Graph: res.Graph})
	}
	if err := snapshot.WriteFile(storePath, snaps); err != nil {
		t.Fatal(err)
	}
	return storePath, archiveDir
}

func defaultQCfg() quality.Config {
	return quality.Config{C: 1.0, MinChangeFrac: 0.05, ApplyTrendToDecreasing: true, MaxTrend: 0.3}
}

func TestServiceSearch(t *testing.T) {
	storePath, archiveDir := buildFixture(t)
	svc, err := buildService(storePath, archiveDir, "", 3, defaultQCfg(), 64)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()

	// Query the topic of site 0 under each ranking mode.
	topic := webcorpus.SiteTopic(0)
	for _, mode := range []string{"", "quality", "pagerank", "relevance"} {
		u := ts.URL + "/search?q=" + topic + "&k=5"
		if mode != "" {
			u += "&rank=" + mode
		}
		resp, err := httpGet(ts.Client(), u)
		if err != nil {
			t.Fatal(err)
		}
		var hits []hitJSON
		if err := json.NewDecoder(resp.Body).Decode(&hits); err != nil {
			t.Fatalf("mode %q: %v", mode, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mode %q: status %d", mode, resp.StatusCode)
		}
		if len(hits) == 0 {
			t.Fatalf("mode %q: no hits for %q", mode, topic)
		}
		for _, h := range hits {
			if h.URL == "" || h.Score <= 0 {
				t.Fatalf("mode %q: bad hit %+v", mode, h)
			}
			if !strings.Contains(h.URL, ".example/") {
				t.Fatalf("mode %q: non-canonical URL %q", mode, h.URL)
			}
		}
		// Results must be in descending score order.
		for i := 1; i < len(hits); i++ {
			if hits[i].Score > hits[i-1].Score+1e-12 {
				t.Fatalf("mode %q: results not sorted", mode)
			}
		}
	}
}

func TestServiceStatsAndHealth(t *testing.T) {
	storePath, archiveDir := buildFixture(t)
	svc, err := buildService(storePath, archiveDir, "", 3, defaultQCfg(), 64)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()
	resp, err := httpGet(ts.Client(), ts.URL+"/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()
	resp, err = httpGet(ts.Client(), ts.URL+"/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats["documents"] == 0 || stats["terms"] == 0 {
		t.Fatalf("stats = %v", stats)
	}
	// The query-cache fields are always present; this service has made no
	// searches, so the counters are zero and the capacity is as built.
	for _, field := range []string{"cache_hits", "cache_misses", "cache_evictions", "cache_entries", "cache_capacity"} {
		if _, ok := stats[field]; !ok {
			t.Fatalf("stats missing %q: %v", field, stats)
		}
	}
	if stats["cache_capacity"] < 64 {
		t.Fatalf("cache_capacity = %d, want >= 64", stats["cache_capacity"])
	}
	if stats["cache_hits"] != 0 || stats["cache_misses"] != 0 || stats["cache_entries"] != 0 {
		t.Fatalf("fresh service has non-zero cache stats: %v", stats)
	}
}

func TestServiceBadRequests(t *testing.T) {
	storePath, archiveDir := buildFixture(t)
	svc, err := buildService(storePath, archiveDir, "", 3, defaultQCfg(), 64)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()
	for _, path := range []string{
		"/search",                // missing q
		"/search?q=x&k=0",        // bad k
		"/search?q=x&k=zzz",      // bad k
		"/search?q=x&rank=bogus", // bad mode
		"/search?q=...",          // tokenizes to nothing
	} {
		resp, err := httpGet(ts.Client(), ts.URL+path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s -> %d, want 400", path, resp.StatusCode)
		}
	}
	resp, err := httpGet(ts.Client(), ts.URL+"/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path -> %d", resp.StatusCode)
	}
}

func TestBuildServiceErrors(t *testing.T) {
	storePath, archiveDir := buildFixture(t)
	if _, err := buildService(filepath.Join(t.TempDir(), "none.pqs"), archiveDir, "", 3, defaultQCfg(), 0); err == nil {
		t.Fatal("missing store accepted")
	}
	if _, err := buildService(storePath, t.TempDir(), "", 3, defaultQCfg(), 0); err == nil {
		t.Fatal("empty archive accepted")
	}
	if _, err := buildService(storePath, archiveDir, "zz", 3, defaultQCfg(), 0); err == nil {
		t.Fatal("unknown label accepted")
	}
	if _, err := buildService(storePath, archiveDir, "", 9, defaultQCfg(), 0); err == nil {
		t.Fatal("snaps beyond series accepted")
	}
}

func TestRunWiresListener(t *testing.T) {
	storePath, archiveDir := buildFixture(t)
	var buf bytes.Buffer
	called := false
	listen := func(addr string, h http.Handler) error {
		called = true
		if h == nil {
			t.Fatal("nil handler")
		}
		return nil
	}
	err := run([]string{"-store", storePath, "-archive", archiveDir, "-addr", "127.0.0.1:0"}, &buf, listen)
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("listener not invoked")
	}
	if !strings.Contains(buf.String(), "indexed") {
		t.Fatalf("banner missing:\n%s", buf.String())
	}
	if err := run([]string{"-store", storePath}, &buf, listen); err == nil {
		t.Fatal("missing -archive accepted")
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
