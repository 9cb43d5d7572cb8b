package serving

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"pagequality/internal/webcorpus"
)

// cached looks k up through getOrCompute and reports whether the body was
// already there, i.e. compute did not run; a miss stores body.
func cached(t *testing.T, c *queryCache, k queryKey, body []byte) bool {
	t.Helper()
	hit := true
	got, err := c.getOrCompute(k, func() ([]byte, error) {
		hit = false
		return body, nil
	})
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("getOrCompute(%+v) = %q, %v, want %q", k, got, err, body)
	}
	return hit
}

func TestQueryCacheLRU(t *testing.T) {
	c := newQueryCache(3)
	k := func(i int) queryKey { return queryKey{q: fmt.Sprintf("q%d", i), k: 10, rank: "quality"} }
	body := func(i int) []byte { return []byte(fmt.Sprintf("body%d", i)) }

	for i := 1; i <= 3; i++ {
		if cached(t, c, k(i), body(i)) {
			t.Fatalf("hit on cold key %d", i)
		}
	}
	if got := c.entries(); got != 3 {
		t.Fatalf("entries = %d, want 3", got)
	}
	// Touch 1 so 2 becomes the LRU victim of the next insert.
	if !cached(t, c, k(1), body(1)) {
		t.Fatal("entry 1 lost")
	}
	if cached(t, c, k(4), body(4)) {
		t.Fatal("hit on cold key 4")
	}
	for _, i := range []int{1, 3, 4} {
		if !cached(t, c, k(i), body(i)) {
			t.Fatalf("entry %d lost", i)
		}
	}
	if cached(t, c, k(2), body(2)) {
		t.Fatal("LRU entry 2 survived eviction")
	}
	hits, misses, _, evictions := c.counters()
	if hits != 4 || misses != 5 || evictions != 2 {
		t.Fatalf("counters = %d/%d/%d, want 4/5/2", hits, misses, evictions)
	}
	if got := c.entries(); got != 3 {
		t.Fatalf("entries = %d, want 3 (bounded)", got)
	}
}

func TestQueryCacheConstruction(t *testing.T) {
	if c := newQueryCache(0); c != nil {
		t.Fatal("capacity 0 should disable the cache")
	}
	// A nil cache is inert but safe: every lookup computes.
	var c *queryCache
	if cached(t, c, queryKey{q: "x"}, []byte("y")) || cached(t, c, queryKey{q: "x"}, []byte("y")) {
		t.Fatal("nil cache hit")
	}
	if c.entries() != 0 || c.capacity() != 0 {
		t.Fatal("nil cache has size")
	}
	h, m, co, e := c.counters()
	if h != 0 || m != 0 || co != 0 || e != 0 {
		t.Fatal("nil cache has counters")
	}
	c.purge(1)
	if c = newQueryCache(5); c.capacity() != 5 {
		t.Fatalf("capacity = %d, want 5", c.capacity())
	}
}

// TestServiceQueryCache drives the cache through the HTTP handler: a cold
// query misses and is stored, a repeat hits and returns byte-identical
// output, (q, k, rank) variations occupy distinct entries, and bad
// requests never populate the cache.
func TestServiceQueryCache(t *testing.T) {
	svc, err := New(fixtureConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := httpGet(ts.Client(), ts.URL+path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	topic := webcorpus.SiteTopic(0)
	code, cold := get("/search?q=" + topic + "&k=5")
	if code != http.StatusOK {
		t.Fatalf("cold query: status %d", code)
	}
	if h, m, _, _ := svc.cache.counters(); h != 0 || m != 1 {
		t.Fatalf("after cold query: hits=%d misses=%d", h, m)
	}
	_, warm := get("/search?q=" + topic + "&k=5")
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cached response differs:\ncold: %s\nwarm: %s", cold, warm)
	}
	if h, m, _, _ := svc.cache.counters(); h != 1 || m != 1 {
		t.Fatalf("after warm query: hits=%d misses=%d", h, m)
	}
	// The default rank and the explicit rank=quality share one entry.
	_, explicit := get("/search?q=" + topic + "&k=5&rank=quality")
	if !bytes.Equal(cold, explicit) {
		t.Fatal("rank=quality not served from the default-rank entry")
	}
	if h, _, _, _ := svc.cache.counters(); h != 2 {
		t.Fatal("explicit rank=quality missed the cache")
	}
	// Different k and rank are different keys.
	get("/search?q=" + topic + "&k=6")
	get("/search?q=" + topic + "&k=5&rank=pagerank")
	if n := svc.cache.entries(); n != 3 {
		t.Fatalf("entries = %d, want 3 (k=5/quality, k=6/quality, k=5/pagerank)", n)
	}
	// Bad requests are rejected before or instead of being cached.
	if code, _ := get("/search?q=...&k=5"); code != http.StatusBadRequest {
		t.Fatalf("bad query status %d", code)
	}
	if n := svc.cache.entries(); n != 3 {
		t.Fatalf("bad request was cached: %d entries", n)
	}
}

// TestServiceCacheConcurrent hammers the handler from many goroutines
// with more distinct queries than the cache can hold, under -race:
// every response must equal the serially recorded answer, the entry
// count must stay bounded, eviction pressure must be visible, and the
// hit/miss counters must account for every lookup.
func TestServiceCacheConcurrent(t *testing.T) {
	cfg := fixtureConfig(t)
	cfg.CacheSize = 8
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()

	// 24 distinct (q, k) keys over an 8-entry cache.
	paths := make([]string, 0, 24)
	for site := 0; site < 8; site++ {
		for _, k := range []int{3, 5, 9} {
			paths = append(paths, fmt.Sprintf("/search?q=%s&k=%d", webcorpus.SiteTopic(site), k))
		}
	}
	want := make(map[string][]byte, len(paths))
	for _, p := range paths {
		resp, err := httpGet(ts.Client(), ts.URL+p)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %v", p, resp.StatusCode, err)
		}
		want[p] = body
	}

	const workers, iters = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				p := paths[(w*7+it)%len(paths)]
				resp, err := httpGet(ts.Client(), ts.URL+p)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("%s: %d %v", p, resp.StatusCode, err)
					return
				}
				if !bytes.Equal(body, want[p]) {
					t.Errorf("%s: concurrent response differs from serial", p)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	hits, misses, coalesced, evictions := svc.cache.counters()
	total := uint64(len(paths) + workers*iters)
	// Every lookup is exactly one of hit, miss (flight leader) or
	// coalesced waiter.
	if hits+misses+coalesced != total {
		t.Fatalf("hits %d + misses %d + coalesced %d != %d lookups", hits, misses, coalesced, total)
	}
	if evictions == 0 {
		t.Fatal("no evictions despite 24 keys over an 8-entry cache")
	}
	if n, c := svc.cache.entries(), svc.cache.capacity(); n > c {
		t.Fatalf("entries %d exceed capacity %d", n, c)
	}
	// /stats must reflect the same counters.
	stats, _ := getStats(t, ts.Client(), ts.URL)
	if stats["cache_hits"] != hits || stats["cache_misses"] != misses || stats["cache_evictions"] != evictions {
		t.Fatalf("stats %v disagree with counters %d/%d/%d", stats, hits, misses, evictions)
	}
}
