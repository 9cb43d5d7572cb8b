package serving

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pagequality/internal/search"
	"pagequality/internal/webcorpus"
)

// TestQueryCacheSingleflight: N goroutines miss the same cold key
// concurrently; exactly one runs the compute, the others coalesce onto
// its result. The gate holds the leader inside compute until every
// other goroutine has had the chance to arrive, so the test is
// deterministic rather than a timing lottery. Run under -race.
func TestQueryCacheSingleflight(t *testing.T) {
	c := newQueryCache(16)
	key := queryKey{gen: 1, q: "hot", k: 10, rank: "quality"}

	const n = 16
	var calls atomic.Int32
	entered := make(chan struct{}) // leader is inside compute
	release := make(chan struct{}) // let the leader finish
	results := make(chan []byte, n)

	var wg sync.WaitGroup
	launch := func() {
		defer wg.Done()
		body, err := c.getOrCompute(key, func() ([]byte, error) {
			calls.Add(1)
			close(entered)
			<-release
			return []byte("answer"), nil
		})
		if err != nil {
			t.Error(err)
			return
		}
		results <- body
	}
	wg.Add(1)
	go launch()
	<-entered // compute is running; every arrival below must coalesce
	for i := 1; i < n; i++ {
		wg.Add(1)
		go launch()
	}
	// Waiters-in-flight are counted before they block; wait until all
	// n-1 have registered, then release the leader.
	for {
		if _, _, co, _ := c.counters(); co == n-1 {
			break
		}
	}
	close(release)
	wg.Wait()
	close(results)

	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	for body := range results {
		if string(body) != "answer" {
			t.Fatalf("coalesced result %q", body)
		}
	}
	hits, misses, coalesced, _ := c.counters()
	if misses != 1 || coalesced != n-1 || hits != 0 {
		t.Fatalf("counters hits=%d misses=%d coalesced=%d, want 0/1/%d", hits, misses, coalesced, n-1)
	}
	// The result is now cached: the next lookup is a plain hit.
	if body, err := c.getOrCompute(key, func() ([]byte, error) {
		t.Fatal("compute ran on a warm key")
		return nil, nil
	}); err != nil || string(body) != "answer" {
		t.Fatalf("warm lookup = %q, %v", body, err)
	}
}

// TestQueryCacheSingleflightError: a failed compute propagates its error
// to the leader and is not cached — the next request computes again.
func TestQueryCacheSingleflightError(t *testing.T) {
	c := newQueryCache(4)
	key := queryKey{gen: 1, q: "bad", k: 10, rank: "quality"}
	boom := errors.New("boom")
	if _, err := c.getOrCompute(key, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := c.entries(); n != 0 {
		t.Fatalf("failed compute was cached: %d entries", n)
	}
	calls := 0
	if body, err := c.getOrCompute(key, func() ([]byte, error) {
		calls++
		return []byte("ok"), nil
	}); err != nil || string(body) != "ok" || calls != 1 {
		t.Fatalf("retry after error: %q, %v, calls=%d", body, err, calls)
	}
}

// TestQueryCachePurge: purge drops exactly the entries of other
// generations.
func TestQueryCachePurge(t *testing.T) {
	c := newQueryCache(16)
	key := func(gen uint64, i int) queryKey {
		return queryKey{gen: gen, q: fmt.Sprintf("q%d", i), k: 10, rank: "quality"}
	}
	for gen := uint64(1); gen <= 2; gen++ {
		for i := 0; i < 4; i++ {
			cached(t, c, key(gen, i), []byte("x"))
		}
	}
	if n := c.entries(); n != 8 {
		t.Fatalf("entries = %d, want 8", n)
	}
	c.purge(2)
	if n := c.entries(); n != 4 {
		t.Fatalf("entries after purge = %d, want 4", n)
	}
	for i := 0; i < 4; i++ {
		if !cached(t, c, key(2, i), []byte("x")) {
			t.Fatalf("generation-2 entry q%d purged", i)
		}
		if cached(t, c, key(1, i), []byte("x")) {
			t.Fatalf("generation-1 entry q%d survived purge", i)
		}
	}
}

// TestServiceCacheKeyNormalizesK is the regression test for cache-key
// inflation: search clamps TopK to the document count, so every k beyond
// it yields the same response and must share one cache entry. k=500 and
// k=1000 (both beyond this fixture's corpus) must produce one miss and
// one hit, not two entries.
func TestServiceCacheKeyNormalizesK(t *testing.T) {
	svc, err := New(fixtureConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if nd := svc.Generation().NumDocs(); nd >= 500 {
		t.Fatalf("fixture has %d docs, test needs < 500", nd)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()

	topic := webcorpus.SiteTopic(0)
	for _, k := range []int{500, 1000} {
		resp, err := httpGet(ts.Client(), fmt.Sprintf("%s/search?q=%s&k=%d", ts.URL, topic, k))
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("k=%d: %v %v", k, resp, err)
		}
		resp.Body.Close()
	}
	hits, misses, _, _ := svc.cache.counters()
	if misses != 1 || hits != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1 (k beyond corpus must share one key)", hits, misses)
	}
	if n := svc.cache.entries(); n != 1 {
		t.Fatalf("entries = %d, want 1", n)
	}
}

// TestServiceRefresh drives the admin refresh path end to end: the
// generation counter advances, the swap empties the effective cache (the
// same query is recomputed, never served from an old generation's entry),
// and responses advertise the generation they were built from. A refresh
// that fails — the store is unreadable — leaves the serving generation in
// place and answering, and shows up in /stats until the next success.
func TestServiceRefresh(t *testing.T) {
	cfg := fixtureConfig(t)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()

	get := func(path string) (int, http.Header, []byte) {
		t.Helper()
		resp, err := httpGet(ts.Client(), ts.URL+path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, body
	}
	search := func(wantGen string) []byte {
		t.Helper()
		code, hdr, body := get("/search?q=" + webcorpus.SiteTopic(0) + "&k=5")
		if code != http.StatusOK || hdr.Get("X-Quality-Generation") != wantGen {
			t.Fatalf("search: status %d, X-Quality-Generation %q, want 200 from generation %s", code, hdr.Get("X-Quality-Generation"), wantGen)
		}
		return body
	}
	refresh := func() map[string]uint64 {
		t.Helper()
		code, _, body := get("/refresh")
		if code != http.StatusOK {
			t.Fatalf("/refresh: status %d: %s", code, body)
		}
		var m map[string]uint64
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	search("1")
	stats, _ := getStats(t, ts.Client(), ts.URL)
	if stats["generation"] != 1 || stats["searches"] != 1 {
		t.Fatalf("fresh stats: %v", stats)
	}

	if ref := refresh(); ref["generation"] != 2 || ref["documents"] != stats["documents"] {
		t.Fatalf("refresh response: %v (want generation 2, %d documents)", ref, stats["documents"])
	}

	// The identical query must be recomputed against generation 2: a hit
	// on the old generation's entry would keep searches at 1.
	served := search("2")
	stats, _ = getStats(t, ts.Client(), ts.URL)
	if stats["generation"] != 2 {
		t.Fatalf("stats generation = %d, want 2", stats["generation"])
	}
	if stats["searches"] != 2 {
		t.Fatalf("searches = %d, want 2 (old generation's cache entry must not serve)", stats["searches"])
	}
	if stats["cache_entries"] != 1 {
		t.Fatalf("cache_entries = %d, want 1 (old generation purged)", stats["cache_entries"])
	}

	// Break the store: the rebuild fails before anything is swapped.
	intact, err := os.ReadFile(cfg.StorePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.StorePath, intact[:len(intact)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := get("/refresh"); code != http.StatusInternalServerError {
		t.Fatalf("/refresh on a truncated store: status %d, want 500", code)
	}
	stats, lastErr := getStats(t, ts.Client(), ts.URL)
	if stats["generation"] != 2 || stats["refresh_failures"] != 1 || lastErr == "" {
		t.Fatalf("after a failed refresh: generation %d, refresh_failures %d, last_refresh_error %q; want 2, 1, the error",
			stats["generation"], stats["refresh_failures"], lastErr)
	}
	if again := search("2"); !bytes.Equal(again, served) {
		t.Fatalf("generation 2 answers differently after the failed refresh:\n%s\n%s", served, again)
	}

	// Mend it: the next refresh succeeds and clears the error, not the count.
	if err := os.WriteFile(cfg.StorePath, intact, 0o644); err != nil {
		t.Fatal(err)
	}
	if ref := refresh(); ref["generation"] != 3 {
		t.Fatalf("refresh after repair: %v, want generation 3", ref)
	}
	stats, lastErr = getStats(t, ts.Client(), ts.URL)
	if stats["generation"] != 3 || stats["refresh_failures"] != 1 || lastErr != "" {
		t.Fatalf("after the repair: generation %d, refresh_failures %d, last_refresh_error %q; want 3, 1, empty",
			stats["generation"], stats["refresh_failures"], lastErr)
	}
}

// syntheticGeneration builds a self-describing generation: every URL and
// both score vectors encode the generation id, so a response mixing two
// generations is detectable field by field.
func syntheticGeneration(id uint64, docs int) *Generation {
	ix := search.NewIndex()
	var urls []string
	var scores []float64
	for i := 0; i < docs; i++ {
		ix.Add(fmt.Sprintf("alpha beta shared corpus terms doc%d", i))
		urls = append(urls, fmt.Sprintf("http://site.example/gen%d/doc%d", id, i))
		scores = append(scores, float64(id)+float64(i)/1e6)
	}
	g, err := newGeneration(id, ix, urls, scores, scores)
	if err != nil {
		panic(err)
	}
	return g
}

// syntheticService serves syntheticGeneration(1, docs) with no store behind
// it: everything but Refresh works.
func syntheticService(docs, maxInflight int) *Service {
	svc := &Service{cache: newQueryCache(64), lim: newLimiter(maxInflight, 0)}
	svc.gen.Store(syntheticGeneration(1, docs))
	return svc
}

// TestServiceGenerationConsistency hammers /search while generations swap
// underneath (run under -race): every response must be internally
// consistent — URLs, quality and pagerank all from the one generation the
// response header names — and that generation must be one that actually
// existed. This is the RCU contract: readers see old state or new state,
// never a mix.
func TestServiceGenerationConsistency(t *testing.T) {
	svc := syntheticService(20, 256)
	ts := httptest.NewServer(svc)
	defer ts.Close()

	const swaps = 50
	var maxGen atomic.Uint64
	maxGen.Store(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for id := uint64(2); id <= swaps; id++ {
			svc.gen.Store(syntheticGeneration(id, 20))
			maxGen.Store(id)
			svc.cache.purge(id)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; ; it++ {
				select {
				case <-done:
					return
				default:
				}
				resp, err := httpGet(ts.Client(), fmt.Sprintf("%s/search?q=alpha+beta&k=%d", ts.URL, 3+(w+it)%5))
				if err != nil {
					t.Error(err)
					return
				}
				genHdr := resp.Header.Get("X-Quality-Generation")
				var hits []hitJSON
				decErr := json.NewDecoder(resp.Body).Decode(&hits)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					t.Errorf("status %d, decode %v", resp.StatusCode, decErr)
					return
				}
				gen, err := strconv.ParseUint(genHdr, 10, 64)
				if err != nil || gen < 1 || gen > maxGen.Load() {
					t.Errorf("response names impossible generation %q (max %d)", genHdr, maxGen.Load())
					return
				}
				if len(hits) == 0 {
					t.Error("no hits")
					return
				}
				prefix := fmt.Sprintf("http://site.example/gen%d/", gen)
				for _, h := range hits {
					if !strings.HasPrefix(h.URL, prefix) {
						t.Errorf("generation %d response contains URL %q — mixed generations", gen, h.URL)
						return
					}
					if uint64(h.Quality) != gen || uint64(h.PageRank) != gen {
						t.Errorf("generation %d response carries scores %g/%g from another generation",
							gen, h.Quality, h.PageRank)
						return
					}
				}
			}
		}(w)
	}
	<-done
	wg.Wait()
}
