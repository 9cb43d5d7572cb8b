package serving

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"pagequality/internal/webcorpus"
)

// TestSoakSearchRefreshShed overlaps the three things a loaded service
// does at once (run under -race): searches over more keys than the cache
// holds, generation swaps, and shedding — the test takes every admission
// slot itself for a while, so sheds are certain rather than likely. No
// request may see anything but 200 or 503, and at rest the permits must
// balance: every admission was a 200 or one of the test's own, every shed
// a 503 or one of the test's own failed attempts, and nothing is held.
func TestSoakSearchRefreshShed(t *testing.T) {
	cfg := fixtureConfig(t)
	cfg.CacheSize, cfg.MaxInflight, cfg.MaxWait = 8, 2, 0
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()

	const refreshes = 3
	refreshed := make(chan struct{})
	go func() {
		defer close(refreshed)
		for i := 0; i < refreshes; i++ {
			if _, err := svc.Refresh(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var ok, shed atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; ; it++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := httpGet(ts.Client(), fmt.Sprintf("%s/search?q=%s&k=%d", ts.URL, webcorpus.SiteTopic((w+it)%8), 3+it%5))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
					if gen, err := strconv.Atoi(resp.Header.Get("X-Quality-Generation")); err != nil || gen < 1 || gen > 1+refreshes {
						t.Errorf("200 from generation %q", resp.Header.Get("X-Quality-Generation"))
						return
					}
				case http.StatusServiceUnavailable:
					shed.Add(1)
				default:
					t.Errorf("status %d under load", resp.StatusCode)
					return
				}
			}
		}(w)
	}

	// Saturate by hand: once both slots are the test's, every arriving
	// search is shed until they are given back.
	held, refused := 0, 0
	for held < cfg.MaxInflight {
		if svc.lim.acquire(context.Background()) {
			held++
		} else {
			refused++
			runtime.Gosched()
		}
	}
	for before := shed.Load(); shed.Load() < before+20 && !t.Failed(); {
		runtime.Gosched()
	}
	for i := 0; i < held; i++ {
		svc.lim.release()
	}
	<-refreshed
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	admitted, shedTotal := svc.lim.counters()
	if admitted != ok.Load()+uint64(held) || shedTotal != shed.Load()+uint64(refused) || svc.lim.inflight() != 0 {
		t.Fatalf("permits do not balance: admitted %d (200s %d + held %d), shed %d (503s %d + refused %d), inflight %d",
			admitted, ok.Load(), held, shedTotal, shed.Load(), refused, svc.lim.inflight())
	}
	if ok.Load() == 0 {
		t.Fatal("no search was admitted")
	}
	if id := svc.Generation().ID; id != 1+refreshes {
		t.Fatalf("generation %d after %d refreshes", id, refreshes)
	}
}
