package serving

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pagequality/internal/webcorpus"
)

// TestLimiterBasics pins the semaphore semantics: capacity admits, excess
// sheds (fail-fast at maxWait 0), releases free slots, counters track
// lifetime admitted/shed.
func TestLimiterBasics(t *testing.T) {
	l := newLimiter(2, 0)
	ctx := context.Background()
	if !l.acquire(ctx) || !l.acquire(ctx) {
		t.Fatal("capacity slots refused")
	}
	if l.inflight() != 2 || l.limit() != 2 {
		t.Fatalf("inflight=%d limit=%d, want 2/2", l.inflight(), l.limit())
	}
	if l.acquire(ctx) {
		t.Fatal("admitted past capacity")
	}
	l.release()
	if !l.acquire(ctx) {
		t.Fatal("freed slot refused")
	}
	l.release()
	l.release()
	if l.inflight() != 0 {
		t.Fatalf("inflight=%d after full release", l.inflight())
	}
	admitted, shed := l.counters()
	if admitted != 3 || shed != 1 {
		t.Fatalf("admitted=%d shed=%d, want 3/1", admitted, shed)
	}
}

// TestLimiterBoundedWait: a saturated limiter holds a request for up to
// maxWait — a release within the window admits it, a cancelled context
// sheds it immediately.
func TestLimiterBoundedWait(t *testing.T) {
	l := newLimiter(1, time.Minute)
	if !l.acquire(context.Background()) {
		t.Fatal("first acquire refused")
	}
	admittedCh := make(chan bool)
	go func() { admittedCh <- l.acquire(context.Background()) }()
	l.release() // frees the slot while the second caller waits
	if !<-admittedCh {
		t.Fatal("waiter not admitted after release")
	}

	// A caller whose context dies while waiting is shed without burning
	// the full maxWait.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if l.acquire(ctx) {
		t.Fatal("cancelled waiter admitted on a saturated limiter")
	}
	l.release()
	if l.inflight() != 0 {
		t.Fatalf("inflight=%d after drain", l.inflight())
	}
}

// TestLimiterRace hammers acquire/release from many goroutines (run
// under -race): the admitted count may never exceed the capacity at any
// instant, every admission is released exactly once, and afterwards no
// permit is lost — the limiter drains to zero and still admits.
func TestLimiterRace(t *testing.T) {
	const capacity = 4
	l := newLimiter(capacity, 0)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	const goroutines = 32
	const iters = 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if !l.acquire(context.Background()) {
					continue
				}
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				cur.Add(-1)
				l.release()
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > capacity {
		t.Fatalf("observed %d concurrent admissions, capacity %d", p, capacity)
	}
	if l.inflight() != 0 {
		t.Fatalf("inflight=%d after drain — lost permits", l.inflight())
	}
	admitted, shed := l.counters()
	if admitted+shed != goroutines*iters {
		t.Fatalf("admitted=%d + shed=%d != %d attempts", admitted, shed, goroutines*iters)
	}
	// No permit lost: a full capacity's worth of slots is still available.
	for i := 0; i < capacity; i++ {
		if !l.acquire(context.Background()) {
			t.Fatalf("slot %d unavailable after drain", i)
		}
	}
	defer func() {
		for i := 0; i < capacity; i++ {
			l.release()
		}
	}()
	if l.acquire(context.Background()) {
		t.Fatal("admitted past capacity after drain")
	}
}

// TestServiceSheds503 drives admission control through the HTTP surface:
// with every slot occupied, /search sheds with 503 + Retry-After and the
// shed counter reaches /stats; with slots free it serves 200s again —
// saturation is a state, not a ratchet.
func TestServiceSheds503(t *testing.T) {
	cfg := fixtureConfig(t)
	cfg.MaxInflight, cfg.MaxWait = 2, 0
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()
	query := ts.URL + "/search?q=" + webcorpus.SiteTopic(0) + "&k=5"

	// Saturate: occupy both slots as two stuck in-flight requests would.
	if !svc.lim.acquire(context.Background()) || !svc.lim.acquire(context.Background()) {
		t.Fatal("could not occupy admission slots")
	}
	const burst = 20
	var wg sync.WaitGroup
	var got503 atomic.Int64
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := httpGet(ts.Client(), query)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("saturated status = %d, want 503", resp.StatusCode)
				return
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("503 without Retry-After")
				return
			}
			got503.Add(1)
		}()
	}
	wg.Wait()
	if got503.Load() != burst {
		t.Fatalf("%d/%d requests shed", got503.Load(), burst)
	}
	if _, shed := svc.lim.counters(); shed != burst {
		t.Fatalf("shed counter = %d, want %d", shed, burst)
	}

	// /stats itself is never admission-limited and reports the shedding.
	stats, _ := getStats(t, ts.Client(), ts.URL)
	if stats["shed"] != burst || stats["max_inflight"] != 2 || stats["inflight"] != 2 {
		t.Fatalf("stats = %v, want shed=%d max_inflight=2 inflight=2", stats, burst)
	}

	// Drain and verify no permit was lost: the service admits again.
	svc.lim.release()
	svc.lim.release()
	resp, err := httpGet(ts.Client(), query)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain status = %d, want 200", resp.StatusCode)
	}
	if svc.lim.inflight() != 0 {
		t.Fatalf("inflight = %d after quiescence — lost permits", svc.lim.inflight())
	}
}

// TestMalformedSearchTakesNoPermit: parameters are validated before
// admission, so with the only slot held a malformed /search is answered
// 400 — not shed with 503 — and moves neither admission counter.
func TestMalformedSearchTakesNoPermit(t *testing.T) {
	cfg := fixtureConfig(t)
	cfg.MaxInflight, cfg.MaxWait = 1, 0
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()
	if !svc.lim.acquire(context.Background()) {
		t.Fatal("could not occupy the admission slot")
	}
	defer svc.lim.release()

	before, _ := getStats(t, ts.Client(), ts.URL)
	for _, path := range []string{"/search", "/search?q=x&k=0", "/search?q=x&rank=bogus", "/search?q=..."} {
		resp, err := httpGet(ts.Client(), ts.URL+path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", path, resp.StatusCode)
		}
	}
	after, _ := getStats(t, ts.Client(), ts.URL)
	if after["admitted"] != before["admitted"] || after["shed"] != before["shed"] {
		t.Fatalf("malformed requests moved the admission counters: admitted %d -> %d, shed %d -> %d",
			before["admitted"], after["admitted"], before["shed"], after["shed"])
	}
}
