package crawler

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"pagequality/internal/pagestore"
	"pagequality/internal/webcorpus"
	"pagequality/internal/webserver"
)

// archiveProbe serves a corpus and counts the page requests the server
// has begun against the OnFetch calls that have returned: the difference
// bounds the bodies the crawl holds at once.
type archiveProbe struct {
	ts                *httptest.Server
	seeds             []string
	served, returned  atomic.Int64
	entered, maxAhead atomic.Int64
}

func newArchiveProbe(t *testing.T, seed int64) *archiveProbe {
	t.Helper()
	sim := testCorpus(t, seed)
	srv, err := webserver.New(sim.Graph().Clone(), sim.AllTexts(webcorpus.TextOptions{MinWords: 10, MaxWords: 20}))
	if err != nil {
		t.Fatal(err)
	}
	p := &archiveProbe{}
	p.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/robots.txt" && r.URL.Path != "/seeds.txt" {
			ahead := p.served.Add(1) - p.returned.Load()
			for m := p.maxAhead.Load(); ahead > m && !p.maxAhead.CompareAndSwap(m, ahead); m = p.maxAhead.Load() {
			}
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(p.ts.Close)
	if p.seeds, err = FetchSeeds(context.Background(), p.ts.Client(), p.ts.URL+"/seeds.txt"); err != nil {
		t.Fatal(err)
	}
	return p
}

// onFetch counts a call in and out around wait.
func (p *archiveProbe) onFetch(wait func()) func(string, []byte) {
	return func(string, []byte) {
		p.entered.Add(1)
		wait()
		p.returned.Add(1)
	}
}

// TestArchiveStageSlowOnFetch: with an OnFetch slower than the fetches,
// Crawl still returns only after every call has, and the queue keeps the
// fetchers no more than its bound ahead of the archive.
func TestArchiveStageSlowOnFetch(t *testing.T) {
	const conc = 2
	p := newArchiveProbe(t, 11)
	res, err := Crawl(Config{Seeds: p.seeds, Client: p.ts.Client(), Concurrency: conc,
		OnFetch: p.onFetch(func() {
			time.Sleep(2 * time.Millisecond) //pqlint:allow walltime an archive slower than a loopback fetch is the case under test
		})})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.returned.Load(); got != int64(res.Stats.Fetched) || got == 0 {
		t.Fatalf("%d OnFetch calls returned for %d fetched pages", got, res.Stats.Fetched)
	}
	p.checkBound(t, conc)
}

// checkBound: at most 2×Concurrency bodies wait in the archive stage
// (Concurrency in OnFetch, Concurrency queued), and each fetcher holds
// one more while it waits to queue it or fetches the next.
func (p *archiveProbe) checkBound(t *testing.T, conc int64) {
	t.Helper()
	if m := p.maxAhead.Load(); m > 3*conc {
		t.Fatalf("requests ran %d ahead of OnFetch; the bound at Concurrency %d is %d", m, conc, 3*conc)
	}
}

// TestArchiveStageBlockedOnFetch: an OnFetch that blocks stalls the
// crawl within the queue's bound, and Crawl does not return until every
// call has, with or without Interrupt.
func TestArchiveStageBlockedOnFetch(t *testing.T) {
	const conc = 2
	for _, interrupt := range []bool{false, true} {
		p := newArchiveProbe(t, 11)
		release, stop := make(chan struct{}), make(chan struct{})
		cfg := Config{Seeds: p.seeds, Client: p.ts.Client(), Concurrency: conc,
			OnFetch: p.onFetch(func() { <-release })}
		if interrupt {
			cfg.Interrupt = stop
		}
		done := make(chan *Result)
		go func() {
			res, err := Crawl(cfg)
			if err != nil {
				t.Error(err)
			}
			done <- res
		}()
		for p.entered.Load() < conc { // every archiver is blocked
			runtime.Gosched()
		}
		if interrupt {
			close(stop)
		}
		select {
		case <-done:
			t.Fatal("Crawl returned while OnFetch was blocked")
		case <-time.After(100 * time.Millisecond): //pqlint:allow walltime a window for the fetchers to run ahead of the blocked archive
		}
		p.checkBound(t, conc)
		close(release)
		res := <-done
		if res == nil {
			return
		}
		if got := p.returned.Load(); got != int64(res.Stats.Fetched) {
			t.Fatalf("interrupt %v: %d OnFetch calls returned for %d fetched pages", interrupt, got, res.Stats.Fetched)
		}
		if res.Interrupted != interrupt {
			t.Fatalf("Interrupted = %v, want %v", res.Interrupted, interrupt)
		}
	}
}

// BenchmarkCrawl times one ingest repetition in process: cmd/bench's
// crawled corpus (60 sites × 30 initial pages, seed 1) served by
// webserver behind httptest, crawled with GOMAXPROCS fetchers, every body
// Put into a pagestore with 1 MiB segments and the store synced. ns/op
// follows op_p50_ms on the ingest workload.
func BenchmarkCrawl(b *testing.B) {
	cfg := webcorpus.DefaultConfig()
	cfg.Sites, cfg.InitialPagesPerSite, cfg.Seed = 60, 30, 1
	sim, err := webcorpus.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := webserver.New(sim.Graph().Clone(), sim.AllTexts(webcorpus.TextOptions{}))
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	seeds, err := FetchSeeds(context.Background(), ts.Client(), ts.URL+"/seeds.txt")
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arch, err := pagestore.Open(filepath.Join(dir, "archive", strconv.Itoa(i)), pagestore.Options{MaxSegmentBytes: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		var putErr atomic.Pointer[error]
		res, err := Crawl(Config{Seeds: seeds, Client: ts.Client(), Concurrency: runtime.GOMAXPROCS(0),
			OnFetch: func(u string, body []byte) {
				if err := arch.Put("t1/"+u, pagestore.Meta{Status: http.StatusOK}, body); err != nil {
					putErr.CompareAndSwap(nil, &err)
				}
			}})
		if err != nil {
			b.Fatal(err)
		}
		if e := putErr.Load(); e != nil {
			b.Fatal(*e)
		}
		if err := arch.Sync(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if arch.Len() != res.Stats.Fetched {
			b.Fatalf("archive holds %d records for %d fetched pages", arch.Len(), res.Stats.Fetched)
		}
		if err := arch.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
