package serving

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

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
// handler: cold runs with the cache disabled (every request searches and
// encodes), cached runs with a warm cache (every request is a hit).
func BenchmarkServeSearch(b *testing.B) {
	query := "/search?q=" + webcorpus.SiteTopic(0) + "+" + webcorpus.SiteTopic(1) + "&k=10"
	for _, bench := range []struct {
		name      string
		cacheSize int
	}{{"cold", 0}, {"cached", 1024}} {
		b.Run(bench.name, func(b *testing.B) {
			svc := benchService(b, bench.cacheSize)
			warm := httptest.NewRequest(http.MethodGet, query, nil)
			svc.ServeHTTP(httptest.NewRecorder(), warm)
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
}

// BenchmarkServeConcurrentClients drives the service over real HTTP with
// parallel clients rotating through a query mix that fits in the cache,
// measuring serving throughput under contention (the cache lock, pooled
// encoders, keep-alive connections).
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
