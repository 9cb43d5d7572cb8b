package serving

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync/atomic"
	"testing"

	"pagequality/internal/randx"
	"pagequality/internal/webcorpus"
)

// benchService builds one service over the crawl fixture with the given
// cache capacity (0 disables the cache, isolating the uncached path).
func benchService(b *testing.B, cacheSize int) *Service {
	b.Helper()
	cfg := fixtureConfig(b)
	cfg.CacheSize = cacheSize
	svc, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return svc
}

// BenchmarkServeSearch times one /search request through the full HTTP
// handler. cold is cmd/bench's search_cold request: k = 50, one topic
// word and eight background words, never repeated, against qualityserve's
// default 4096-entry cache — every request misses, searches, encodes and
// is inserted (evicting, once the cache is full). cached repeats one
// query against a warm cache, so every request is a hit.
func BenchmarkServeSearch(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		svc := benchService(b, 4096)
		paths := make([]string, 0, b.N)
		seen := make(map[string]bool, b.N)
		key := randx.Key("serving.bench.cold")
		for i := uint64(0); len(paths) < b.N; i++ {
			rng := randx.NewStream(1, key, i)
			q := webcorpus.SiteTopic(randx.Intn(&rng, 10)) + strconv.Itoa(randx.Intn(&rng, 40))
			for j := 0; j < 8; j++ {
				q += " common" + strconv.Itoa(randx.Intn(&rng, 400))
			}
			if !seen[q] {
				seen[q] = true
				paths = append(paths, "/search?q="+url.QueryEscape(q)+"&k=50")
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for _, p := range paths {
			rec := httptest.NewRecorder()
			svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		query := "/search?q=" + webcorpus.SiteTopic(0) + "+" + webcorpus.SiteTopic(1) + "&k=10"
		svc := benchService(b, 1024)
		svc.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, query, nil))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, query, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
}

// BenchmarkServeConcurrentClients drives the service over real HTTP with
// parallel clients rotating through a query mix that fits in the cache,
// measuring serving throughput under contention (the cache lock,
// keep-alive connections).
func BenchmarkServeConcurrentClients(b *testing.B) {
	svc := benchService(b, 1024)
	ts := httptest.NewServer(svc)
	defer ts.Close()
	paths := make([]string, 0, 16)
	for site := 0; site < 8; site++ {
		for _, k := range []int{5, 10} {
			paths = append(paths, fmt.Sprintf("%s/search?q=%s&k=%d", ts.URL, webcorpus.SiteTopic(site), k))
		}
	}
	client := ts.Client()
	for _, p := range paths { // warm the cache so steady state is measured
		resp, err := httpGet(client, p)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p := paths[next.Add(1)%uint64(len(paths))]
			resp, err := httpGet(client, p)
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
		}
	})
}
