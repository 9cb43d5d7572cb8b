package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pagequality/internal/loadgen"
	"pagequality/internal/randx"
)

// searchLoad measures the query path of a running qualityserve with a
// closed loop of 4 x nproc clients, each on its own connection.
//
// Cold: every query is one topic word plus eight background words at
// k = 50 and is never repeated, so the response cache always misses: the
// engine runs on every request, which also pays the encoding of 50 hits,
// a cache insert and an eviction. Sharding and scoring-kernel work shows
// here.
//
// Hot: a zipf(1.1) stream over the 820 topic names and topic words at
// k = 10 against a warmed cache, so a request is a cache hit plus
// net/http plumbing and the engine runs for none of them. This is the
// workload an engine change must leave alone and a cache or handler
// change must move.
type searchLoad struct {
	serving
	hot    bool
	next   uint64              // queries drawn so far
	seen   map[string]struct{} // cold queries issued, to never repeat one
	hotWL  *loadgen.Workload
	conns  []*loadConn
	issued []string // the latest repetition's queries, sampled by check
	acc    usageDelta
}

// loadConn is one closed-loop client: a connection it writes a request to
// and reads the response from on the calling goroutine. http.Transport
// hands every request to a write loop and a read loop and back; through it
// the generator cost as much CPU as a cache hit costs the server, and the
// context switches per request (0.78-1.15 from one 48000-request batch to
// the next, the batch's wall following them from 1.2 to 1.6 s) were the
// largest noise of the hot workload. Here the generator costs a fraction
// of the server, which stays the bottleneck.
type loadConn struct {
	conn net.Conn
	br   *bufio.Reader
	req  []byte
}

func dialLoad(ctx context.Context, addr string) (*loadConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &loadConn{conn: conn, br: bufio.NewReader(conn)}, nil
}

// get sends one GET and reads the response to its end; it returns the
// status.
func (c *loadConn) get(host, path string) (int, error) {
	c.req = append(c.req[:0], "GET "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, host...)
	c.req = append(c.req, "\r\n\r\n"...)
	if _, err := c.conn.Write(c.req); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, err
}

// usageDelta accumulates the server's and the client's counters over the
// repetitions, read outside each repetition's timed region.
type usageDelta struct {
	requests, hits, misses, searches, shed uint64
	serverCPU, clientCPU                   time.Duration
}

func (d *usageDelta) add(before, after usage, requests int) {
	d.requests += uint64(requests)
	d.hits += after.stats.CacheHits - before.stats.CacheHits
	d.misses += after.stats.CacheMisses - before.stats.CacheMisses
	d.searches += after.stats.Searches - before.stats.Searches
	d.shed += after.stats.Shed - before.stats.Shed
	d.serverCPU += after.serverCPU - before.serverCPU
	d.clientCPU += after.clientCPU - before.clientCPU
}

func (d *usageDelta) hitRatio() float64 {
	if d.hits+d.misses == 0 {
		return 0
	}
	return float64(d.hits) / float64(d.hits+d.misses)
}

func (w *searchLoad) name() string {
	if w.hot {
		return "hot"
	}
	return "cold"
}

func (w *searchLoad) k() int {
	if w.hot {
		return 10
	}
	return 50
}

func (w *searchLoad) requests(e *env) int {
	if w.hot {
		return e.sizes.hotReqs
	}
	return e.sizes.coldReqs
}

func (w *searchLoad) setup(e *env) error {
	if err := w.serving.setup(e); err != nil {
		return err
	}
	for c := 0; c < searchClients(e); c++ {
		conn, err := dialLoad(e.ctx, w.srv.addr)
		if err != nil {
			return err
		}
		w.conns = append(w.conns, conn)
	}
	if !w.hot {
		w.seen = map[string]struct{}{}
		return nil
	}
	var err error
	if w.hotWL, err = loadgen.NewWorkload(w.fx.vocab, 1.1, e.seed); err != nil {
		return err
	}
	// One untimed pass over the whole vocabulary fills the cache.
	_, fails, err := w.closedLoop(nil, w.fx.vocab)
	if err == nil && fails > 0 {
		err = fmt.Errorf("search_hot: %d warming requests failed", fails)
	}
	return err
}

// coldKey salts the cold query streams apart from every other user of
// the seed.
var coldKey = randx.Key("bench.search_cold")

// searchClients is the closed loop's client count. With nproc clients the
// loop is a ping-pong between two processes whose pace is set by how fast
// the hypervisor wakes an idle vCPU; with four per CPU the server always
// has a request queued and the loop is CPU-bound.
func searchClients(e *env) int { return 4 * e.nproc }

// draw returns the next n queries of the seeded stream.
func (w *searchLoad) draw(e *env, n int) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		i := w.next
		w.next++
		if w.hot {
			out = append(out, w.hotWL.Query(i))
			continue
		}
		// One counter stream per query index: query i is a pure function
		// of (seed, i), like the loadgen stream.
		rng := randx.NewStream(e.seed, coldKey, i)
		words := w.fx.vocab[20:] // past the topic names: the topic words
		var b strings.Builder
		b.WriteString(words[randx.Intn(&rng, len(words))])
		for j := 0; j < 8; j++ {
			b.WriteString(" common")
			b.WriteString(strconv.Itoa(randx.Intn(&rng, 400)))
		}
		q := b.String()
		if _, dup := w.seen[q]; dup {
			continue
		}
		w.seen[q] = struct{}{}
		out = append(out, q)
	}
	return out
}

func (w *searchLoad) path(q string) string {
	return "/search?q=" + url.QueryEscape(q) + "&k=" + strconv.Itoa(w.k())
}

// closedLoop sends the queries from every client, each sending its next
// request when the previous one has been read to the end, and returns
// every latency (send to body read).
func (w *searchLoad) closedLoop(tr *tracer, queries []string) ([]time.Duration, int, error) {
	lat := make([]time.Duration, len(queries))
	var next, fails atomic.Int64
	var netErr firstError
	var wg sync.WaitGroup
	for _, c := range w.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				sp := tr.begin(nil, "qualityserve.search")
				t0 := time.Now()
				status, err := c.get(w.srv.addr, w.path(queries[i]))
				lat[i] = time.Since(t0)
				sp.end()
				if err != nil {
					netErr.set(err)
					return
				}
				if status != http.StatusOK {
					fails.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return lat, int(fails.Load()), netErr.get()
}

func (w *searchLoad) rep(e *env, tr *tracer) (repResult, error) {
	queries := w.draw(e, w.requests(e))
	w.issued = queries
	before, err := w.srv.usage(e.ctx)
	if err != nil {
		return repResult{}, err
	}
	t0 := time.Now()
	lat, fails, err := w.closedLoop(tr, queries)
	wall := time.Since(t0)
	if err != nil {
		return repResult{}, err
	}
	after, err := w.srv.usage(e.ctx)
	if err != nil {
		return repResult{}, err
	}
	w.acc.add(before, after, len(queries))
	return repResult{wall: wall, ops: len(queries), attempted: len(queries), failed: fails, opTime: quantile(lat, 0.5)}, nil
}

// hitJSON is one hit of a /search response.
type hitJSON struct {
	URL   string  `json:"url"`
	Score float64 `json:"score"`
}

// check compares 200 sampled responses with the in-process engine's hits
// for the same query (URL order and score bits) and the cache counters
// with what the workload is built to do.
func (w *searchLoad) check(e *env) error {
	ratio := w.acc.hitRatio()
	if w.hot && ratio < 0.99 {
		return fmt.Errorf("search_hot: cache hit ratio %.4f, want >= 0.99", ratio)
	}
	if !w.hot && ratio > 0.01 {
		return fmt.Errorf("search_cold: cache hit ratio %.4f, want <= 0.01", ratio)
	}
	if w.acc.shed > 0 {
		return fmt.Errorf("search_%s: %d requests shed", w.name(), w.acc.shed)
	}
	step := len(w.issued) / 200
	if step < 1 {
		step = 1
	}
	checked := 0
	for i := 0; i < len(w.issued); i += step {
		q := w.issued[i]
		status, body, err := w.srv.get(e.ctx, w.path(q))
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("search_%s: %q: status %d", w.name(), q, status)
		}
		var got []hitJSON
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("search_%s: %q: %w", w.name(), q, err)
		}
		want, err := w.gen.sx.SearchContext(e.ctx, q, w.gen.searchOptions(w.k()))
		if err != nil {
			return err
		}
		if len(got) != len(want) || len(got) == 0 {
			return fmt.Errorf("search_%s: %q: %d hits served, %d in process", w.name(), q, len(got), len(want))
		}
		for j, h := range want {
			if got[j].URL != w.gen.urls[h.Doc] || math.Float64bits(got[j].Score) != math.Float64bits(h.Score) {
				return fmt.Errorf("search_%s: %q: hit %d is %s %v served, %s %v in process",
					w.name(), q, j, got[j].URL, got[j].Score, w.gen.urls[h.Doc], h.Score)
			}
		}
		checked++
	}
	e.logf("search_%s: %d sampled responses equal the in-process hits, cache hit ratio %.4f", w.name(), checked, ratio)
	return nil
}

func (w *searchLoad) probe(e *env, tr *tracer) error {
	n := float64(w.acc.requests)
	e.layer["qualityserve.cache_hit_ratio"] = w.acc.hitRatio()
	e.layer["qualityserve.searches_per_req"] = float64(w.acc.searches) / n
	e.layer["qualityserve.shed"] = float64(w.acc.shed)
	e.layer["qualityserve.cpu_us_per_req"] = us(w.acc.serverCPU) / n
	e.layer["loadgen.client_cpu_share"] = w.acc.clientCPU.Seconds() / (w.acc.clientCPU + w.acc.serverCPU).Seconds()

	// The engine alone, in process, on the queries just served.
	sample := w.issued
	if len(sample) > 2000 {
		sample = sample[:2000]
	}
	one, err := w.inProcess(e.ctx, sample, 1)
	if err != nil {
		return err
	}
	many, err := w.inProcess(e.ctx, sample, e.nproc)
	if err != nil {
		return err
	}
	e.layer["search.query_us_"+w.name()] = us(one)
	e.layer["search.shard_speedup"] = one.Seconds() / many.Seconds()
	// A hit never reaches the engine, so all of a hot request is overhead.
	overhead := 1000 * e.opP50Ms
	if !w.hot {
		overhead -= us(one)
	}
	e.layer["qualityserve.http_overhead_us"] = overhead

	if w.hot {
		for _, rate := range []int{500, 1500} {
			if err := w.openLoop(e, rate); err != nil {
				return err
			}
		}
	}
	e.layer["qualityserve.peak_rss_mb"] = procPeakRSSMB(w.srv.pid())
	return nil
}

// openLoop offers the hot stream at a fixed rate for openLoopS seconds,
// every arrival on schedule whatever the server does, and reports the
// latency quantiles and how late the generator itself ran.
func (w *searchLoad) openLoop(e *env, rate int) error {
	var late []time.Duration
	rep, err := loadgen.Run(e.ctx, loadgen.Options{
		BaseURL: w.srv.base, Workload: w.hotWL, Rate: float64(rate),
		Requests: int(float64(rate) * e.sizes.openLoopS), TopK: w.k(),
		Client: &http.Client{Transport: &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256}},
		Now:    time.Now,
		// Run sleeps until an arrival is due: what it oversleeps is how
		// late that arrival left.
		Sleep: func(d time.Duration) {
			t0 := time.Now()
			time.Sleep(d)
			late = append(late, time.Since(t0)-d)
		},
	})
	if err != nil {
		return err
	}
	if bad := rep.BadStatus + rep.NetErr; bad > 0 {
		return fmt.Errorf("open loop at %d rps: %d of %d requests failed", rate, bad, rep.Requests)
	}
	e.layer[fmt.Sprintf("qualityserve.open_p50_ms_r%d", rate)] = ms(rep.P50)
	e.layer[fmt.Sprintf("qualityserve.open_p99_ms_r%d", rate)] = ms(rep.P99)
	e.layer["loadgen.late_p99_ms"] = ms(quantile(late, 0.99))
	return nil
}

// inProcess runs the queries through the in-process engine at the given
// shard count and returns the p50 of one search.
func (w *searchLoad) inProcess(ctx context.Context, queries []string, shards int) (time.Duration, error) {
	sx, err := w.gen.ix.Shard(shards, 0)
	if err != nil {
		return 0, err
	}
	opts := w.gen.searchOptions(w.k())
	lat := make([]time.Duration, len(queries))
	for i, q := range queries {
		t0 := time.Now()
		if _, err := sx.SearchContext(ctx, q, opts); err != nil {
			return 0, err
		}
		lat[i] = time.Since(t0)
	}
	return quantile(lat, 0.5), nil
}

func (w *searchLoad) close() {
	for _, c := range w.conns {
		_ = c.conn.Close() //pqlint:allow droppederr the run is over and every response has been read
	}
	w.serving.close()
}
