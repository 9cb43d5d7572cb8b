package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is the injected clock for tests: Now advances a millisecond
// per call and Sleep jumps forward by the requested duration, so runs
// are fast and the library never touches wall time.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(0, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func testWorkload(t *testing.T) *Workload {
	t.Helper()
	w, err := NewWorkload([]string{"alpha", "beta", "gamma"}, 1.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunValidation(t *testing.T) {
	clk := newFakeClock()
	wl := testWorkload(t)
	good := Options{BaseURL: "http://x", Workload: wl, Rate: 100, Requests: 1,
		Now: clk.Now, Sleep: clk.Sleep}
	bad := []func(*Options){
		func(o *Options) { o.BaseURL = "" },
		func(o *Options) { o.Workload = nil },
		func(o *Options) { o.Rate = 0 },
		func(o *Options) { o.Rate = -3 },
		func(o *Options) { o.Requests = 0 },
		func(o *Options) { o.TopK = -1 },
		func(o *Options) { o.Timeout = -time.Second },
		func(o *Options) { o.Now = nil },
		func(o *Options) { o.Sleep = nil },
	}
	for i, mutate := range bad {
		o := good
		mutate(&o)
		if _, err := Run(context.Background(), o); err == nil {
			t.Fatalf("mutation %d: want validation error", i)
		}
	}
}

// TestRunAgainstStub drives the full open-loop runner against a stub
// server that sheds every 5th request (503) and rejects every 7th (418),
// and checks the report's accounting is exact: every scheduled arrival
// is classified exactly once and latencies are recorded only for 200s.
func TestRunAgainstStub(t *testing.T) {
	var arrivals atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/search" {
			t.Errorf("unexpected path %q", r.URL.Path)
		}
		q := r.URL.Query()
		switch q.Get("q") {
		case "alpha", "beta", "gamma":
		default:
			t.Errorf("query %q not from the vocabulary", q.Get("q"))
		}
		if q.Get("k") != "10" || q.Get("rank") != "quality" {
			t.Errorf("unexpected params k=%q rank=%q", q.Get("k"), q.Get("rank"))
		}
		n := arrivals.Add(1)
		switch {
		case n%5 == 0:
			w.Header().Set("Retry-After", "1")
			http.Error(w, "saturated", http.StatusServiceUnavailable)
		case n%7 == 0:
			http.Error(w, "teapot", http.StatusTeapot)
		default:
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{"hits": []any{}})
		}
	}))
	defer ts.Close()

	clk := newFakeClock()
	const n = 200
	rep, err := Run(context.Background(), Options{
		BaseURL:  ts.URL,
		Workload: testWorkload(t),
		Rate:     1000,
		Requests: n,
		Rank:     "quality",
		Now:      clk.Now,
		Sleep:    clk.Sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != n {
		t.Fatalf("Requests = %d, want %d", rep.Requests, n)
	}
	if got := rep.OK + rep.Shed + rep.BadStatus + rep.NetErr; got != n {
		t.Fatalf("classified %d of %d arrivals", got, n)
	}
	// Multiples of 5 in 1..200: 40 shed. Multiples of 7 not of 5: 23.
	if rep.Shed != 40 {
		t.Fatalf("Shed = %d, want 40", rep.Shed)
	}
	if rep.BadStatus != 23 {
		t.Fatalf("BadStatus = %d, want 23", rep.BadStatus)
	}
	if rep.OK != 137 {
		t.Fatalf("OK = %d, want 137", rep.OK)
	}
	if rep.NetErr != 0 {
		t.Fatalf("NetErr = %d", rep.NetErr)
	}
	if rep.Hist.Count() != rep.OK {
		t.Fatalf("histogram holds %d samples, want %d (200s only)", rep.Hist.Count(), rep.OK)
	}
	if rep.ShedRate != 0.2 {
		t.Fatalf("ShedRate = %g, want 0.2", rep.ShedRate)
	}
	if rep.Elapsed <= 0 || rep.Throughput <= 0 {
		t.Fatalf("Elapsed = %v, Throughput = %g", rep.Elapsed, rep.Throughput)
	}
	// Quantiles report bucket upper bounds, so P99 may exceed the exact
	// Max by up to one sub-bucket — but never by more.
	if rep.P50 <= 0 || rep.P99 < rep.P50 || rep.Max <= 0 {
		t.Fatalf("inconsistent quantiles p50=%v p99=%v max=%v", rep.P50, rep.P99, rep.Max)
	}
	if rep.P99 > time.Duration(bucketUpper(bucketOf(int64(rep.Max)))) {
		t.Fatalf("p99 %v beyond max's bucket (max %v)", rep.P99, rep.Max)
	}
}

// TestRunCancelled: a dead context stops scheduling immediately and the
// context error is surfaced.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	clk := newFakeClock()
	rep, err := Run(ctx, Options{
		BaseURL:  "http://127.0.0.1:0",
		Workload: testWorkload(t),
		Rate:     1000,
		Requests: 50,
		Now:      clk.Now,
		Sleep:    clk.Sleep,
	})
	if err == nil {
		t.Fatal("want context error")
	}
	if rep.Requests != 0 {
		t.Fatalf("scheduled %d arrivals on a dead context", rep.Requests)
	}
}

// TestReportJSON pins the wire names of the -json report format.
func TestReportJSON(t *testing.T) {
	b, err := json.Marshal(&Report{})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"requests", "offered_rate_rps", "ok", "shed",
		"bad_status", "net_err", "elapsed_ns", "throughput_rps", "shed_rate",
		"p50_ns", "p95_ns", "p99_ns", "max_ns"} {
		if !strings.Contains(string(b), `"`+key+`"`) {
			t.Fatalf("report JSON missing %q: %s", key, b)
		}
	}
}
