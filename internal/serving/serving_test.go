package serving

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pagequality/internal/crawler"
	"pagequality/internal/pagestore"
	"pagequality/internal/quality"
	"pagequality/internal/snapshot"
	"pagequality/internal/webcorpus"
	"pagequality/internal/webserver"
)

// buildFixture grows a small corpus, crawls it three times over HTTP
// (archiving bodies under t1..t3), and writes the snapshot store — the
// exact inputs qualityserve consumes in production.
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
	return crawlFixture(t, cfg, webcorpus.TextOptions{MinWords: 20, MaxWords: 40})
}

// crawlFixture grows the corpus cfg describes and crawls it at weeks 0, 4
// and 8, serving page text generated with text.
func crawlFixture(t testing.TB, cfg webcorpus.Config, text webcorpus.TextOptions) (storePath, archiveDir string) {
	t.Helper()
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

	var snaps []snapshot.Snapshot
	for k, week := range []float64{0, 4, 8} {
		sim.AdvanceTo(week)
		srv, err := webserver.New(sim.Graph().Clone(), sim.AllTexts(text))
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

// fixtureConfig is serviceConfig over a fresh fixture.
func fixtureConfig(t testing.TB) Config {
	t.Helper()
	return serviceConfig(buildFixture(t))
}

// serviceConfig is qualityserve's default flags over a store and an
// archive, with a cache small enough for the tests to fill.
func serviceConfig(storePath, archiveDir string) Config {
	return Config{
		StorePath: storePath, ArchiveDir: archiveDir, Snaps: 3, Quality: defaultQCfg(),
		CacheSize: 64, MaxInflight: 256, MaxWait: 5 * time.Millisecond,
	}
}

// getStats decodes /stats: the counters, and last_refresh_error apart.
func getStats(t testing.TB, c *http.Client, base string) (map[string]uint64, string) {
	t.Helper()
	resp, err := httpGet(c, base+"/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	lastErr, ok := raw["last_refresh_error"].(string)
	if !ok {
		t.Fatalf("stats without last_refresh_error: %v", raw)
	}
	delete(raw, "last_refresh_error")
	stats := make(map[string]uint64, len(raw))
	for k, v := range raw {
		f, ok := v.(float64)
		if !ok {
			t.Fatalf("stats[%q] = %v, want a number", k, v)
		}
		stats[k] = uint64(f)
	}
	return stats, lastErr
}

func TestServiceSearch(t *testing.T) {
	svc, err := New(fixtureConfig(t))
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
	svc, err := New(fixtureConfig(t))
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
	stats, lastErr := getStats(t, ts.Client(), ts.URL)
	if stats["documents"] == 0 || stats["terms"] == 0 {
		t.Fatalf("stats = %v", stats)
	}
	if lastErr != "" || stats["refresh_failures"] != 0 {
		t.Fatalf("fresh service reports a refresh failure: %q, %v", lastErr, stats)
	}
	// The query-cache fields are always present; this service has made no
	// searches, so the counters are zero and the capacity is as built.
	for _, field := range []string{"cache_hits", "cache_misses", "cache_evictions", "cache_entries", "cache_capacity", "refresh_failures"} {
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
	svc, err := New(fixtureConfig(t))
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

func TestNewErrors(t *testing.T) {
	good := fixtureConfig(t)
	for _, bad := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"missing store", func(c *Config) { c.StorePath = filepath.Join(t.TempDir(), "none.pqs") }},
		{"empty archive", func(c *Config) { c.ArchiveDir = t.TempDir() }},
		{"unknown label", func(c *Config) { c.Label = "zz" }},
		{"snaps beyond series", func(c *Config) { c.Snaps = 9 }},
		{"no admission slot", func(c *Config) { c.MaxInflight = 0 }},
	} {
		cfg := good
		bad.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("%s accepted", bad.name)
		}
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
