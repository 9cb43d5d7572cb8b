package crawler

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"sync"
	"testing"
	"time"
)

// noSleep is the injected sleeper for tests: retry paths must never block.
func noSleep(time.Duration) {}

// sleepRecorder collects the backoff delays a crawl asked for, without
// actually sleeping.
type sleepRecorder struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (r *sleepRecorder) sleep(d time.Duration) {
	r.mu.Lock()
	r.delays = append(r.delays, d)
	r.mu.Unlock()
}

func (r *sleepRecorder) sorted() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]time.Duration(nil), r.delays...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	r := Retry{Seed: 42}
	if err := r.fill(); err != nil {
		t.Fatal(err)
	}
	const u = "http://x/p/1.html"
	for attempt := 1; attempt <= 10; attempt++ {
		a := r.backoff(u, attempt, 0)
		if b := r.backoff(u, attempt, 0); a != b {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", attempt, a, b)
		}
		base := r.BaseDelay << (attempt - 1)
		if base > r.MaxDelay || base <= 0 {
			base = r.MaxDelay
		}
		if a < base/2 || a >= base {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, a, base/2, base)
		}
	}
	// Large attempts saturate at the ceiling, never overflow.
	if d := r.backoff(u, 200, 0); d > r.MaxDelay || d <= 0 {
		t.Fatalf("saturated backoff = %v", d)
	}
	// Different URLs and attempts draw different jitter.
	if r.backoff(u, 1, 0) == r.backoff("http://x/p/2.html", 1, 0) {
		t.Fatal("distinct URLs share their jitter")
	}
}

func TestBackoffHonoursRetryAfter(t *testing.T) {
	r := Retry{BaseDelay: 10 * time.Millisecond, MaxDelay: 2 * time.Second, Seed: 1}
	if err := r.fill(); err != nil {
		t.Fatal(err)
	}
	// A server hint above the computed backoff wins...
	if d := r.backoff("http://x/", 1, time.Second); d != time.Second {
		t.Fatalf("Retry-After ignored: %v", d)
	}
	// ...but never past the ceiling.
	if d := r.backoff("http://x/", 1, time.Minute); d != r.MaxDelay {
		t.Fatalf("Retry-After exceeded MaxDelay: %v", d)
	}
	// A hint below the backoff changes nothing.
	want := r.backoff("http://x/", 1, 0)
	if d := r.backoff("http://x/", 1, time.Nanosecond); d != want {
		t.Fatalf("tiny Retry-After altered backoff: %v vs %v", d, want)
	}
}

func TestRetryConfigValidation(t *testing.T) {
	if _, err := Crawl(Config{Seeds: []string{"http://x/"}, Retry: Retry{MaxAttempts: -1}}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("negative MaxAttempts accepted")
	}
	if _, err := Crawl(Config{Seeds: []string{"http://x/"}, Retry: Retry{BaseDelay: -time.Second}}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("negative BaseDelay accepted")
	}
	if _, err := Crawl(Config{Seeds: []string{"http://x/"}, RequestTimeout: -time.Second}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("negative RequestTimeout accepted")
	}
	if _, err := Crawl(Config{Seeds: []string{"http://x/"}, MaxHostErrors: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("negative MaxHostErrors accepted")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want errClass
	}{
		{"404", &HTTPError{Status: http.StatusNotFound}, classPermanent},
		{"403", &HTTPError{Status: http.StatusForbidden}, classPermanent},
		{"429", &HTTPError{Status: http.StatusTooManyRequests}, classTransient},
		{"408", &HTTPError{Status: http.StatusRequestTimeout}, classTransient},
		{"500", &HTTPError{Status: http.StatusInternalServerError}, classTransient},
		{"503", &HTTPError{Status: http.StatusServiceUnavailable}, classTransient},
		{"parse", &url.Error{Op: "parse", URL: "://bad", Err: errors.New("missing scheme")}, classPermanent},
		{"transport", &url.Error{Op: "Get", URL: "http://x/", Err: errors.New("connection refused")}, classTransient},
		{"dns-timeout", &net.DNSError{IsTimeout: true}, classTransient},
		{"ctx-deadline", fmt.Errorf("wrapped: %w", context.DeadlineExceeded), classTransient},
		{"other", errors.New("malformed document"), classPermanent},
	}
	for _, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Errorf("classify(%s) = %v, want %v", c.name, got, c.want)
		}
	}
	if !isTimeout(&net.DNSError{IsTimeout: true}) || !isTimeout(context.DeadlineExceeded) {
		t.Fatal("timeout not recognised")
	}
	if isTimeout(&HTTPError{Status: 500}) {
		t.Fatal("HTTP 500 mistaken for a timeout")
	}
	if !isRateLimited(&HTTPError{Status: 429}) || isRateLimited(&HTTPError{Status: 503}) {
		t.Fatal("rate-limit detection wrong")
	}
}

func TestParseRetryAfter(t *testing.T) {
	for _, c := range []struct {
		header string
		want   time.Duration
	}{
		{"", 0}, {"2", 2 * time.Second}, {"0", 0},
		{"-1", 0}, {"soon", 0}, {"Wed, 21 Oct 2015 07:28:00 GMT", 0},
	} {
		resp := &http.Response{Header: http.Header{}}
		if c.header != "" {
			resp.Header.Set("Retry-After", c.header)
		}
		if got := parseRetryAfter(resp); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// flakyServer answers each path with failures until its per-path failure
// budget is spent, then serves the page.
type flakyServer struct {
	mu       sync.Mutex
	failures map[string]int // remaining injected failures per path
	status   int            // the failure status to answer with
	hits     map[string]int // total requests per path
	pages    map[string]string
}

func newFlakyServer(status int, pages map[string]string, failures map[string]int) *flakyServer {
	f := make(map[string]int, len(failures))
	for k, v := range failures {
		f[k] = v
	}
	return &flakyServer{failures: f, status: status, hits: make(map[string]int), pages: pages}
}

func (s *flakyServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.hits[r.URL.Path]++
	remaining := s.failures[r.URL.Path]
	if remaining > 0 {
		s.failures[r.URL.Path]--
	}
	body, ok := s.pages[r.URL.Path]
	s.mu.Unlock()
	if remaining > 0 {
		http.Error(w, "flaky", s.status)
		return
	}
	if !ok {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, body)
}

func (s *flakyServer) hitCount(path string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits[path]
}

func TestRetryTransientThenSucceed(t *testing.T) {
	pages := map[string]string{
		"/":  `<a href="/a">a</a>`,
		"/a": "leaf",
	}
	srv := newFlakyServer(http.StatusServiceUnavailable, pages, map[string]int{"/a": 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rec := &sleepRecorder{}
	res, err := Crawl(Config{
		Seeds:  []string{ts.URL + "/"},
		Client: ts.Client(),
		Retry:  Retry{MaxAttempts: 3, Seed: 5, Sleep: rec.sleep},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Fetched != 2 || res.Stats.Errors != 0 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if res.Stats.Retries != 2 {
		t.Fatalf("retries = %d, want 2", res.Stats.Retries)
	}
	if srv.hitCount("/a") != 3 {
		t.Fatalf("/a hit %d times, want 3", srv.hitCount("/a"))
	}
	// The recorded backoffs are exactly the policy's deterministic values.
	pol := Retry{MaxAttempts: 3, Seed: 5}
	if err := pol.fill(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{pol.backoff(ts.URL+"/a", 1, 0), pol.backoff(ts.URL+"/a", 2, 0)}
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	got := rec.sorted()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("recorded backoffs %v, want %v", got, want)
	}
}

func TestRetryExhaustionRequeuesTransient(t *testing.T) {
	pages := map[string]string{
		"/":  `<a href="/dead">dead</a><a href="/a">a</a>`,
		"/a": "leaf",
	}
	srv := newFlakyServer(http.StatusServiceUnavailable, pages, map[string]int{"/dead": 1 << 30})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	res, err := Crawl(Config{
		Seeds:  []string{ts.URL + "/"},
		Client: ts.Client(),
		Retry:  Retry{MaxAttempts: 2, Sleep: noSleep},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Fetched != 2 || res.Stats.Errors != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if res.Interrupted {
		t.Fatal("uninterrupted crawl marked interrupted")
	}
	if srv.hitCount("/dead") != 2 {
		t.Fatalf("/dead hit %d times, want MaxAttempts=2", srv.hitCount("/dead"))
	}
}

func TestRetryAfterRecordedAndHonoured(t *testing.T) {
	var mu sync.Mutex
	failed := false
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		first := !failed
		failed = true
		mu.Unlock()
		if first {
			w.Header().Set("Retry-After", "2")
			http.Error(w, "throttled", http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, "ok")
	})
	ts := httptest.NewServer(handler)
	defer ts.Close()

	rec := &sleepRecorder{}
	res, err := Crawl(Config{
		Seeds:  []string{ts.URL + "/"},
		Client: ts.Client(),
		Retry:  Retry{MaxAttempts: 2, MaxDelay: 10 * time.Second, Sleep: rec.sleep},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Fetched != 1 || res.Stats.RateLimited != 1 || res.Stats.Retries != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	delays := rec.sorted()
	if len(delays) != 1 || delays[0] != 2*time.Second {
		t.Fatalf("Retry-After not honoured: slept %v, want [2s]", delays)
	}
}

func TestRequestTimeoutClassifiedTransient(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			<-r.Context().Done() // stall until the crawler gives up
			return
		}
		fmt.Fprint(w, `<a href="/slow">slow</a>`)
	})
	ts := httptest.NewServer(handler)
	defer ts.Close()

	res, err := Crawl(Config{
		Seeds:          []string{ts.URL + "/"},
		Client:         ts.Client(),
		RequestTimeout: 50 * time.Millisecond,
		Retry:          Retry{MaxAttempts: 2, Sleep: noSleep},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Timeouts != 2 {
		t.Fatalf("timeouts = %d, want 2 (both attempts)", res.Stats.Timeouts)
	}
	if res.Stats.Errors != 1 || res.Stats.Retries != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

func TestHostErrorBudgetDegradesHost(t *testing.T) {
	pages := map[string]string{
		"/": `<a href="/e1">1</a><a href="/e2">2</a><a href="/e3">3</a><a href="/e4">4</a>`,
	}
	always := 1 << 30
	srv := newFlakyServer(http.StatusInternalServerError, pages,
		map[string]int{"/e1": always, "/e2": always, "/e3": always, "/e4": always})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	res, err := Crawl(Config{
		Seeds:         []string{ts.URL + "/"},
		Client:        ts.Client(),
		Concurrency:   1,
		MaxHostErrors: 2,
		Retry:         Retry{MaxAttempts: 2, Sleep: noSleep},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.HostsDegraded != 1 {
		t.Fatalf("hosts degraded = %d, want 1", res.Stats.HostsDegraded)
	}
	// Exactly MaxHostErrors URLs were actually fetched-and-failed; the
	// rest were skipped without a single request.
	if res.Stats.Errors != 2 {
		t.Fatalf("errors = %d, want 2 (the budget)", res.Stats.Errors)
	}
	total := 0
	for _, p := range []string{"/e1", "/e2", "/e3", "/e4"} {
		total += srv.hitCount(p)
	}
	// 2 failed URLs x 2 attempts; the two skipped ones cost zero requests.
	if total != 4 {
		t.Fatalf("degraded host still received %d requests, want 4", total)
	}
}
