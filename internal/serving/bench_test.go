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

	"pagequality/internal/pagestore"
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

// benchCorpus is cmd/bench's serving corpus at its full size and default
// seed: 60 sites of 30 initial pages with default page text, about 2,000
// documents served after three crawls.
func benchCorpus() webcorpus.Config {
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = 60
	cfg.InitialPagesPerSite = 30
	cfg.Seed = 1
	return cfg
}

// BenchmarkServeSearch times one /search request through the full HTTP
// handler on cmd/bench's serving fixture, built once per run, so ns/op
// follows the bench's qualityserve.cpu_us_per_req. cold is the
// search_cold request: k = 50, one topic word and eight background words
// (about 1,200 matches), never repeated, against qualityserve's default
// 4096-entry cache — every request misses, searches, encodes and is
// inserted (evicting, once the cache is full). narrow is one topic word
// at k = 50 with the cache off: about 80 matches, so the authority walk
// scores nearly all of them and pays for visiting most of the order.
// cached repeats one query against a warm cache, so every request is a
// hit.
func BenchmarkServeSearch(b *testing.B) {
	cfg := serviceConfig(crawlFixture(b, benchCorpus(), webcorpus.TextOptions{}, pagestore.Options{}))
	service := func(cacheSize int) *Service {
		c := cfg
		c.CacheSize = cacheSize
		svc, err := New(c)
		if err != nil {
			b.Fatal(err)
		}
		return svc
	}
	serve := func(b *testing.B, svc *Service, paths []string) {
		b.ReportAllocs()
		b.ResetTimer()
		for _, p := range paths {
			rec := httptest.NewRecorder()
			svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	}
	// topicWord is the i-th of the 800 topic words cmd/bench draws from.
	topicWord := func(i int) string { return webcorpus.SiteTopic(i%20) + strconv.Itoa(i/20%40) }

	cold := service(4096)
	seen := map[string]bool{} // across the calls of one run: a query is never repeated
	next := uint64(0)
	key := randx.Key("serving.bench.cold")
	b.Run("cold", func(b *testing.B) {
		paths := make([]string, 0, b.N)
		for ; len(paths) < b.N; next++ {
			rng := randx.NewStream(1, key, next)
			q := topicWord(randx.Intn(&rng, 800))
			for j := 0; j < 8; j++ {
				q += " common" + strconv.Itoa(randx.Intn(&rng, 400))
			}
			if !seen[q] {
				seen[q] = true
				paths = append(paths, "/search?q="+url.QueryEscape(q)+"&k=50")
			}
		}
		serve(b, cold, paths)
	})

	narrow := service(0)
	b.Run("narrow", func(b *testing.B) {
		paths := make([]string, b.N)
		for i := range paths {
			paths[i] = "/search?q=" + topicWord(i%800) + "&k=50"
		}
		serve(b, narrow, paths)
	})

	cached := service(1024)
	b.Run("cached", func(b *testing.B) {
		query := "/search?q=" + webcorpus.SiteTopic(0) + "+" + webcorpus.SiteTopic(1) + "&k=10"
		cached.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, query, nil))
		paths := make([]string, b.N)
		for i := range paths {
			paths[i] = query
		}
		serve(b, cached, paths)
	})
}

// BenchmarkLoadGeneration times one cold build in process: LoadGeneration
// with no previous generation on cmd/bench's serving fixture (about 2,000
// documents, three crawls, 1 MiB archive segments), built once per run.
// That is the server's generation 1, part of the bench's setup_s; every
// later refresh is BenchmarkRefresh.
func BenchmarkLoadGeneration(b *testing.B) {
	cfg := serviceConfig(crawlFixture(b, benchCorpus(), webcorpus.TextOptions{}, pagestore.Options{MaxSegmentBytes: 1 << 20}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadGeneration(cfg, uint64(i+1), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefresh times Service.Refresh on unchanged files after New, on
// the same fixture: the operation the refresh workload's op_p50_ms times,
// without the HTTP round trip. Every record is taken over from the
// generation before.
func BenchmarkRefresh(b *testing.B) {
	cfg := serviceConfig(crawlFixture(b, benchCorpus(), webcorpus.TextOptions{}, pagestore.Options{MaxSegmentBytes: 1 << 20}))
	svc, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := svc.Refresh()
		if err != nil {
			b.Fatal(err)
		}
		if g.reused != g.archived {
			b.Fatalf("refresh reused %d of %d records", g.reused, g.archived)
		}
	}
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
