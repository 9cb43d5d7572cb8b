// Command qualityserve is the downstream application the paper motivates:
// a search service whose ranking uses the quality estimate instead of raw
// PageRank. It loads a crawl series (snapshot store) and the archived
// page bodies (pagestore), estimates Q(p) from the PageRank trend, builds
// a full-text index over the documents, and serves a JSON search API:
//
//	GET /search?q=<terms>&k=10&rank=quality|pagerank|relevance
//	GET /refresh
//	GET /stats
//	GET /healthz
//
// The query path is built for load: the index serves every request from
// a frozen flat posting layout partitioned into -shards doc-shards
// searched in parallel (scatter-gather with a deterministic top-k merge,
// bitwise equal to the unsharded engine), responses are encoded through
// pooled buffers, and a sharded LRU cache keyed on (generation, query,
// k, rank) short-cuts repeated queries, with per-key singleflight so a
// thundering herd on a cold key runs the search once. An admission
// limiter (-max-inflight, -max-wait) bounds concurrent searches: on
// saturation the excess is shed with 503 + Retry-After instead of
// queueing without bound, so latency for admitted requests stays pinned.
//
// The serving state — index, score vectors, URL table — lives in an
// immutable generation behind an atomic pointer. /refresh (and the
// -refresh-interval ticker) rebuilds the next generation from the store
// off the request path and swaps it in RCU-style: in-flight queries keep
// the generation they loaded, new queries see the new one, and no request
// ever observes a mix. Cache keys carry the generation id, so a swap
// invalidates every cached response without racing the readers.
//
// Usage:
//
//	qualityserve -store web.pqs -archive pages/ -label t3 -snaps 3 \
//	             -addr 127.0.0.1:8088 [-cachesize 4096] [-refresh-interval 10m]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pagequality/internal/corpus"
	"pagequality/internal/crawler"
	"pagequality/internal/pagerank"
	"pagequality/internal/pagestore"
	"pagequality/internal/quality"
	"pagequality/internal/search"
	"pagequality/internal/snapshot"
	"pagequality/internal/webserver"
)

// cacheShards is the shard count of the query cache: enough that
// concurrent clients rarely collide on a shard lock, small enough that a
// modest capacity still gives each shard a useful LRU depth.
const cacheShards = 16

func main() {
	if err := run(os.Args[1:], os.Stdout, webserver.ListenAndServe); err != nil {
		fmt.Fprintln(os.Stderr, "qualityserve:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer, listen func(string, http.Handler) error) error {
	fs := flag.NewFlagSet("qualityserve", flag.ContinueOnError)
	var (
		store        = fs.String("store", "web.pqs", "snapshot store with the crawl series")
		archive      = fs.String("archive", "", "pagestore directory with archived page bodies")
		label        = fs.String("label", "", "archive label of the crawl to index (default: last estimation snapshot)")
		snapsN       = fs.Int("snaps", 3, "number of leading snapshots used for quality estimation")
		c            = fs.Float64("c", 1.0, "estimator constant C")
		cap_         = fs.Float64("maxtrend", 0.3, "trend cap")
		addr         = fs.String("addr", "127.0.0.1:8088", "listen address")
		cacheSize    = fs.Int("cachesize", 4096, "query cache capacity in entries (0 disables caching)")
		refresh      = fs.Duration("refresh-interval", 0, "rebuild the index from the store at this interval (0 disables; /refresh always works)")
		shards       = fs.Int("shards", 1, "doc-shards the index is partitioned into (clamped to the document count)")
		shardWorkers = fs.Int("shard-workers", 0, "worker pool searching the shards (0 = GOMAXPROCS)")
		maxInflight  = fs.Int("max-inflight", 256, "admission limit on concurrent searches; excess is shed with 503")
		maxWait      = fs.Duration("max-wait", 5*time.Millisecond, "how long a request may wait for an admission slot before being shed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *archive == "" {
		return fmt.Errorf("-archive is required")
	}
	if *cacheSize < 0 {
		return fmt.Errorf("-cachesize must be >= 0, got %d", *cacheSize)
	}
	if *refresh < 0 {
		return fmt.Errorf("-refresh-interval must be >= 0, got %v", *refresh)
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", *shards)
	}
	if *shardWorkers < 0 {
		return fmt.Errorf("-shard-workers must be >= 0, got %d", *shardWorkers)
	}
	if *maxInflight < 1 {
		return fmt.Errorf("-max-inflight must be >= 1, got %d", *maxInflight)
	}
	if *maxWait < 0 {
		return fmt.Errorf("-max-wait must be >= 0, got %v", *maxWait)
	}
	svc, err := buildServiceCfg(*store, *archive, *label, *snapsN, quality.Config{
		C: *c, MinChangeFrac: 0.05, ApplyTrendToDecreasing: true, MaxTrend: *cap_,
	}, serveConfig{
		cacheSize:    *cacheSize,
		shards:       *shards,
		shardWorkers: *shardWorkers,
		maxInflight:  *maxInflight,
		maxWait:      *maxWait,
	})
	if err != nil {
		return err
	}
	if *refresh > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go svc.refreshLoop(*refresh, stop, out)
	}
	g := svc.gen.Load()
	fmt.Fprintf(out, "indexed %d documents (%d common pages, %d shards) — serving on http://%s/\n",
		g.ix.NumDocs(), len(g.urls), g.sx.NumShards(), *addr)
	return listen(*addr, svc)
}

// generation is one immutable serving state: the eagerly frozen index,
// the per-document score vectors and the URL table, all derived from a
// single read of the crawl series. A query loads the current generation
// exactly once and touches only its fields, so every response is
// internally consistent even when a refresh swaps generations mid-flight.
type generation struct {
	id   uint64
	ix   *search.Index
	sx   *search.ShardedIndex // scatter-gather view of ix; searches go here
	urls []string             // doc id -> canonical URL
	qual []float64
	pr   []float64
}

// serveConfig bundles the serving knobs of a service: cache capacity,
// index sharding geometry and the admission limit.
type serveConfig struct {
	cacheSize    int
	shards       int           // doc-shard count (>= 1)
	shardWorkers int           // fan-out pool (0 = GOMAXPROCS)
	maxInflight  int           // admission limit (< 1 = unlimited)
	maxWait      time.Duration // bounded wait for an admission slot
}

// service routes requests against the current generation and owns the
// machinery that replaces it: the rebuild inputs, the refresh lock and
// the generation-keyed query cache.
type service struct {
	gen   atomic.Pointer[generation]
	cache *queryCache
	lim   *limiter
	// bufPool recycles the JSON encoding buffers of cache misses; its
	// zero value is usable (encodeHits falls back to a fresh buffer).
	bufPool sync.Pool
	// searches counts index searches actually executed — cache hits and
	// coalesced waiters do not add to it, which is what makes singleflight
	// observable from /stats.
	searches atomic.Uint64

	// Rebuild inputs, fixed for the life of the process.
	storePath  string
	archiveDir string
	label      string
	snapsN     int
	qcfg       quality.Config
	shards     int
	shardWk    int

	// refreshMu serialises rebuilds (a rebuild is expensive; overlapping
	// ones would waste work and could swap in out of order). Readers never
	// take it — they only load the atomic pointer.
	refreshMu sync.Mutex
}

// buildService loads the series, estimates quality, and indexes the
// archived bodies of the chosen crawl as generation 1. cacheSize bounds
// the query cache (0 disables it). Sharding stays at 1 and admission
// unlimited — the historical behaviour most tests want; run() goes
// through buildServiceCfg.
func buildService(storePath, archiveDir, label string, snapsN int, qcfg quality.Config, cacheSize int) (*service, error) {
	return buildServiceCfg(storePath, archiveDir, label, snapsN, qcfg, serveConfig{cacheSize: cacheSize, shards: 1})
}

// buildServiceCfg is buildService with the full serving configuration.
func buildServiceCfg(storePath, archiveDir, label string, snapsN int, qcfg quality.Config, cfg serveConfig) (*service, error) {
	svc := &service{
		cache:      newQueryCache(cacheShards, cfg.cacheSize),
		lim:        newLimiter(cfg.maxInflight, cfg.maxWait),
		storePath:  storePath,
		archiveDir: archiveDir,
		label:      label,
		snapsN:     snapsN,
		qcfg:       qcfg,
		shards:     cfg.shards,
		shardWk:    cfg.shardWorkers,
	}
	g, err := svc.loadGeneration(1)
	if err != nil {
		return nil, err
	}
	svc.gen.Store(g)
	return svc, nil
}

// loadGeneration reads the snapshot store and the page archive and builds
// one complete, frozen generation. It runs off the request path: nothing
// it does is visible to readers until the caller swaps the result in.
func (s *service) loadGeneration(id uint64) (*generation, error) {
	snaps, err := snapshot.ReadFile(s.storePath)
	if err != nil {
		return nil, err
	}
	al, err := snapshot.Align(snaps)
	if err != nil {
		return nil, err
	}
	if s.snapsN < 2 || s.snapsN > al.NumSnapshots() {
		return nil, fmt.Errorf("qualityserve: snaps=%d with %d snapshots", s.snapsN, al.NumSnapshots())
	}
	est, ranks, err := quality.FromAlignedIncremental(al, s.snapsN,
		pagerank.IncrementalOptions{Options: pagerank.Options{Variant: pagerank.VariantPaper}}, s.qcfg)
	if err != nil {
		return nil, err
	}
	cur := ranks[s.snapsN-1]

	label := s.label
	if label == "" {
		label = al.Labels[s.snapsN-1]
	}
	arch, err := pagestore.Open(s.archiveDir, pagestore.Options{})
	if err != nil {
		return nil, err
	}
	defer arch.Close()

	// Map canonical URL -> aligned index for score lookup.
	byURL := make(map[string]int, len(al.URLs))
	for i, u := range al.URLs {
		byURL[u] = i
	}

	// One corpus pass projects every indexable document under the label;
	// the key prefix keeps the other crawls' records unread. The canonical
	// link, the common-page filter and the tokenizer all run in the
	// parallel map phase; Extract returns key order, so the sequential
	// index build below — posting appends only — sees the same documents
	// in the same order the old KeysWithPrefix+Get walk produced.
	type indexable struct {
		canonical string
		terms     search.Analyzed
		ai        int
	}
	docs, err := corpus.Extract(arch, func(d corpus.Doc) (indexable, bool) {
		l, fetchURL, ok := corpus.SplitKey(d.Key)
		if !ok || l != label {
			return indexable{}, false
		}
		body := string(d.Body)
		canonical := crawler.Canonical(body)
		if canonical == "" {
			canonical = fetchURL
		}
		ai, ok := byURL[canonical]
		if !ok {
			return indexable{}, false // page not common to every crawl: no quality estimate
		}
		return indexable{canonical: canonical, terms: search.Analyze(body), ai: ai}, true
	}, corpus.Options{KeyPrefix: label + "/"})
	if err != nil {
		return nil, err
	}
	if len(docs) == 0 && len(arch.KeysWithPrefix(label+"/")) == 0 {
		return nil, fmt.Errorf("qualityserve: no documents with label %q in %s", label, s.archiveDir)
	}

	g := &generation{id: id, ix: search.NewIndex()}
	for _, d := range docs {
		canonical, ai := d.canonical, d.ai
		doc := g.ix.AddAnalyzed(d.terms)
		if doc != len(g.urls) {
			return nil, fmt.Errorf("qualityserve: document id drift")
		}
		g.urls = append(g.urls, canonical)
		g.qual = append(g.qual, est.Q[ai])
		g.pr = append(g.pr, cur[ai])
	}
	if g.ix.NumDocs() == 0 {
		return nil, fmt.Errorf("qualityserve: no indexable documents matched the common pages")
	}
	// Freeze now, once, so no reader ever pays (or races on) the lazy
	// posting-layout build after the swap; the shard partition rides on
	// the same frozen layout (Shard clamps s.shards to the doc count).
	g.ix.Freeze()
	g.sx, err = g.ix.Shard(s.shards, s.shardWk)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// refresh rebuilds the serving state from the store and swaps it in. On
// error the current generation keeps serving untouched. After the swap,
// cached responses of older generations are unreachable (keys carry the
// generation id); purge drops them eagerly to free their memory.
func (s *service) refresh() (*generation, error) {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	g, err := s.loadGeneration(s.gen.Load().id + 1)
	if err != nil {
		return nil, err
	}
	s.gen.Store(g)
	s.cache.purge(g.id)
	return g, nil
}

// refreshLoop drives periodic refreshes until stop closes. Failures are
// reported and the previous generation keeps serving.
func (s *service) refreshLoop(every time.Duration, stop <-chan struct{}, out io.Writer) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if g, err := s.refresh(); err != nil {
				fmt.Fprintf(out, "refresh failed (still serving generation %d): %v\n", s.gen.Load().id, err)
			} else {
				fmt.Fprintf(out, "refreshed: generation %d, %d documents\n", g.id, g.ix.NumDocs())
			}
		}
	}
}

// hitJSON is one search result in the API response.
type hitJSON struct {
	URL       string  `json:"url"`
	Score     float64 `json:"score"`
	Relevance float64 `json:"relevance"`
	Quality   float64 `json:"quality"`
	PageRank  float64 `json:"pagerank"`
}

func (s *service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	case "/stats":
		s.serveStats(w)
	case "/refresh":
		s.serveRefresh(w)
	case "/search":
		s.serveSearch(w, r)
	default:
		http.NotFound(w, r)
	}
}

func (s *service) serveStats(w http.ResponseWriter) {
	g := s.gen.Load()
	hits, misses, coalesced, evictions := s.cache.counters()
	admitted, shed := s.lim.counters()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"generation":      g.id,
		"documents":       g.ix.NumDocs(),
		"terms":           g.ix.NumTerms(),
		"shards":          g.sx.NumShards(),
		"searches":        s.searches.Load(),
		"max_inflight":    s.lim.limit(),
		"inflight":        s.lim.inflight(),
		"admitted":        admitted,
		"shed":            shed,
		"cache_hits":      hits,
		"cache_misses":    misses,
		"cache_coalesced": coalesced,
		"cache_evictions": evictions,
		"cache_entries":   s.cache.entries(),
		"cache_capacity":  s.cache.capacity(),
	})
}

func (s *service) serveRefresh(w http.ResponseWriter) {
	g, err := s.refresh()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"generation": g.id,
		"documents":  g.ix.NumDocs(),
	})
}

func (s *service) serveSearch(w http.ResponseWriter, r *http.Request) {
	// Validate before admission: a malformed request is answered 400
	// whatever the load and never holds a permit.
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, `missing query parameter "q"`, http.StatusBadRequest)
		return
	}
	k := 10
	if ks := r.URL.Query().Get("k"); ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v < 1 || v > 1000 {
			http.Error(w, `parameter "k" must be an integer in [1,1000]`, http.StatusBadRequest)
			return
		}
		k = v
	}
	rank := r.URL.Query().Get("rank")
	switch rank {
	case "":
		rank = "quality" // the default and the explicit form share a cache key
	case "quality", "pagerank", "relevance":
	default:
		http.Error(w, `parameter "rank" must be quality, pagerank or relevance`, http.StatusBadRequest)
		return
	}
	// Admission control: past the in-flight limit (plus a bounded wait for
	// a slot) the request is shed with 503 + Retry-After instead of queueing
	// in the scheduler, so overload degrades into a bounded-latency service
	// at capacity rather than a collapsing one.
	if !s.lim.acquire(r.Context()) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "saturated: in-flight search limit reached", http.StatusServiceUnavailable)
		return
	}
	defer s.lim.release()
	// One load; g is this request's whole world. A refresh swapping the
	// pointer mid-request cannot change what this response is built from.
	g := s.gen.Load()
	// Normalise to the effective k: search clamps TopK to the document
	// count, so every k beyond it produces the same hit list and must
	// share one cache entry instead of inflating the key space.
	if nd := g.ix.NumDocs(); k > nd {
		k = nd
	}
	opts := search.Options{TopK: k}
	switch rank {
	case "quality":
		opts.Authority = g.qual
		opts.AuthorityWeight = 0.7
	case "pagerank":
		opts.Authority = g.pr
		opts.AuthorityWeight = 0.7
	}
	key := queryKey{gen: g.id, q: q, k: k, rank: rank}
	compute := func() ([]byte, error) {
		s.searches.Add(1)
		// The request context flows through the shard fan-out, so a client
		// that disconnects mid-query cancels its in-flight shard work.
		hits, err := g.sx.SearchContext(r.Context(), q, opts)
		if err != nil {
			return nil, err
		}
		return s.encodeHits(g, hits)
	}
	body, err := s.cache.getOrCompute(key, compute)
	// A coalesced waiter can inherit a context error from a leader whose
	// client hung up mid-search; that error belongs to the leader's request,
	// not this one. While this request is itself still live, retry — the
	// retrying waiter becomes the new leader under its own context.
	for err != nil && isCtxErr(err) && r.Context().Err() == nil {
		body, err = s.cache.getOrCompute(key, compute)
	}
	if err != nil {
		if isCtxErr(err) && r.Context().Err() != nil {
			// This client is gone; nothing useful can be written.
			return
		}
		status := http.StatusInternalServerError
		if errors.Is(err, search.ErrBadQuery) {
			status = http.StatusBadRequest
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Quality-Generation", strconv.FormatUint(g.id, 10))
	w.Write(body)
}

// isCtxErr reports whether err is a context cancellation or deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// encodeHits renders the JSON response body through a pooled buffer. The
// returned slice is a private copy, safe to cache and to hand to
// concurrent writers.
func (s *service) encodeHits(g *generation, hits []search.Hit) ([]byte, error) {
	out := make([]hitJSON, 0, len(hits))
	for _, h := range hits {
		out = append(out, hitJSON{
			URL:       g.urls[h.Doc],
			Score:     h.Score,
			Relevance: h.Relevance,
			Quality:   g.qual[h.Doc],
			PageRank:  g.pr[h.Doc],
		})
	}
	buf, _ := s.bufPool.Get().(*bytes.Buffer)
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	err := json.NewEncoder(buf).Encode(out)
	var body []byte
	if err == nil {
		body = append([]byte(nil), buf.Bytes()...)
	}
	s.bufPool.Put(buf)
	return body, err
}
