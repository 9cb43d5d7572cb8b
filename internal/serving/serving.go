// Package serving is the downstream application the paper motivates: a
// search service whose ranking uses the quality estimate instead of raw
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
// a frozen flat posting layout, responses are encoded through pooled
// buffers, and an LRU cache keyed on (generation, query, k, rank)
// short-cuts repeated queries, with per-key singleflight so a thundering
// herd on a cold key runs the search once. An admission limiter
// (Config.MaxInflight, Config.MaxWait) bounds concurrent searches: on
// saturation the excess is shed with 503 + Retry-After instead of
// queueing without bound, so latency for admitted requests stays pinned.
//
// The serving state — index, score vectors, URL table — lives in an
// immutable Generation behind an atomic pointer. Refresh rebuilds the
// next generation from the store off the request path and swaps it in
// RCU-style: in-flight queries keep the generation they loaded, new
// queries see the new one, and no request ever observes a mix. Cache keys
// carry the generation id, so a swap invalidates every cached response
// without racing the readers.
package serving

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"

	"pagequality/internal/corpus"
	"pagequality/internal/crawler"
	"pagequality/internal/pagerank"
	"pagequality/internal/pagestore"
	"pagequality/internal/quality"
	"pagequality/internal/search"
	"pagequality/internal/snapshot"
)

// Config is everything a Service is built from: the rebuild inputs, fixed
// for the life of the service, and the serving limits.
type Config struct {
	StorePath  string         // snapshot store with the crawl series
	ArchiveDir string         // pagestore directory with the archived page bodies
	Label      string         // archive label of the crawl to index ("" = last estimation snapshot)
	Snaps      int            // leading snapshots used for quality estimation
	Quality    quality.Config // estimator configuration

	CacheSize   int           // query cache capacity in entries (0 disables caching)
	MaxInflight int           // admission limit on concurrent searches (>= 1)
	MaxWait     time.Duration // bounded wait for an admission slot before shedding
}

// Generation is one immutable serving state: the eagerly frozen index,
// the per-document score vectors and the URL table, all derived from a
// single read of the crawl series. A query loads the current generation
// exactly once and touches only its fields, so every response is
// internally consistent even when a refresh swaps generations mid-flight.
type Generation struct {
	ID   uint64
	ix   *search.Index
	urls []string // doc id -> canonical URL
	qual []float64
	pr   []float64
}

// NumDocs returns the number of indexed documents.
func (g *Generation) NumDocs() int { return g.ix.NumDocs() }

// Service routes requests against the current generation and owns the
// machinery that replaces it: the rebuild inputs, the refresh lock and
// the generation-keyed query cache.
type Service struct {
	cfg   Config
	gen   atomic.Pointer[Generation]
	cache *queryCache
	lim   *limiter
	// bufPool recycles the JSON encoding buffers of cache misses; its
	// zero value is usable (encodeHits falls back to a fresh buffer).
	bufPool sync.Pool
	// searches counts index searches actually executed — cache hits and
	// coalesced waiters do not add to it, which is what makes singleflight
	// observable from /stats.
	searches atomic.Uint64

	// refreshMu serialises rebuilds (a rebuild is expensive; overlapping
	// ones would waste work and could swap in out of order). Readers never
	// take it — they only load the atomic pointer.
	refreshMu       sync.Mutex
	refreshFailures atomic.Uint64
	lastRefreshErr  atomic.Value // string; "" once a refresh has succeeded
}

// New loads the series, estimates quality, and indexes the archived
// bodies of the chosen crawl as generation 1.
func New(cfg Config) (*Service, error) {
	if cfg.MaxInflight < 1 {
		return nil, fmt.Errorf("serving: max in-flight must be >= 1, got %d", cfg.MaxInflight)
	}
	g, err := LoadGeneration(cfg, 1)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:   cfg,
		cache: newQueryCache(cfg.CacheSize),
		lim:   newLimiter(cfg.MaxInflight, cfg.MaxWait),
	}
	s.gen.Store(g)
	return s, nil
}

// Generation returns the generation currently being served.
func (s *Service) Generation() *Generation { return s.gen.Load() }

// LoadGeneration reads the snapshot store and the page archive and builds
// one complete, frozen generation. It is a pure function of the files
// cfg names: nothing it does is visible to any reader until a caller
// swaps the result in.
func LoadGeneration(cfg Config, id uint64) (*Generation, error) {
	snaps, err := snapshot.ReadFile(cfg.StorePath)
	if err != nil {
		return nil, err
	}
	al, err := snapshot.Align(snaps)
	if err != nil {
		return nil, err
	}
	if cfg.Snaps < 2 || cfg.Snaps > al.NumSnapshots() {
		return nil, fmt.Errorf("serving: snaps=%d with %d snapshots", cfg.Snaps, al.NumSnapshots())
	}
	est, ranks, err := quality.FromAlignedIncremental(al, cfg.Snaps,
		pagerank.IncrementalOptions{Options: pagerank.Options{Variant: pagerank.VariantPaper}}, cfg.Quality)
	if err != nil {
		return nil, err
	}
	cur := ranks[cfg.Snaps-1]

	label := cfg.Label
	if label == "" {
		label = al.Labels[cfg.Snaps-1]
	}
	arch, err := pagestore.Open(cfg.ArchiveDir, pagestore.Options{})
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
		return nil, fmt.Errorf("serving: no documents with label %q in %s", label, cfg.ArchiveDir)
	}

	g := &Generation{ID: id, ix: search.NewIndex()}
	for _, d := range docs {
		canonical, ai := d.canonical, d.ai
		doc := g.ix.AddAnalyzed(d.terms)
		if doc != len(g.urls) {
			return nil, fmt.Errorf("serving: document id drift")
		}
		g.urls = append(g.urls, canonical)
		g.qual = append(g.qual, est.Q[ai])
		g.pr = append(g.pr, cur[ai])
	}
	if g.ix.NumDocs() == 0 {
		return nil, fmt.Errorf("serving: no indexable documents matched the common pages")
	}
	// Freeze now, once, so no reader ever pays (or races on) the lazy
	// posting-layout build after the swap.
	g.ix.Freeze()
	return g, nil
}

// Refresh rebuilds the serving state from the store and swaps it in. On
// error the current generation keeps serving untouched and /stats reports
// the failure. After the swap, cached responses of older generations are
// unreachable (keys carry the generation id); purge drops them eagerly to
// free their memory.
func (s *Service) Refresh() (*Generation, error) {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	g, err := LoadGeneration(s.cfg, s.gen.Load().ID+1)
	if err != nil {
		s.refreshFailures.Add(1)
		s.lastRefreshErr.Store(err.Error())
		return nil, err
	}
	s.lastRefreshErr.Store("")
	s.gen.Store(g)
	s.cache.purge(g.ID)
	return g, nil
}

// hitJSON is one search result in the API response.
type hitJSON struct {
	URL       string  `json:"url"`
	Score     float64 `json:"score"`
	Relevance float64 `json:"relevance"`
	Quality   float64 `json:"quality"`
	PageRank  float64 `json:"pagerank"`
}

func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
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

func (s *Service) serveStats(w http.ResponseWriter) {
	g := s.gen.Load()
	hits, misses, coalesced, evictions := s.cache.counters()
	admitted, shed := s.lim.counters()
	lastErr, _ := s.lastRefreshErr.Load().(string)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"generation":         g.ID,
		"documents":          g.ix.NumDocs(),
		"terms":              g.ix.NumTerms(),
		"searches":           s.searches.Load(),
		"refresh_failures":   s.refreshFailures.Load(),
		"last_refresh_error": lastErr,
		"max_inflight":       s.lim.limit(),
		"inflight":           s.lim.inflight(),
		"admitted":           admitted,
		"shed":               shed,
		"cache_hits":         hits,
		"cache_misses":       misses,
		"cache_coalesced":    coalesced,
		"cache_evictions":    evictions,
		"cache_entries":      s.cache.entries(),
		"cache_capacity":     s.cache.capacity(),
	})
}

func (s *Service) serveRefresh(w http.ResponseWriter) {
	g, err := s.Refresh()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"generation": g.ID,
		"documents":  g.ix.NumDocs(),
	})
}

// isTermRune is search.Tokenize's rule for a rune that belongs to a term.
func isTermRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

func (s *Service) serveSearch(w http.ResponseWriter, r *http.Request) {
	// Validate before admission: a malformed request is answered 400
	// whatever the load and never holds a permit.
	params := r.URL.Query()
	q := params.Get("q")
	if q == "" {
		http.Error(w, `missing query parameter "q"`, http.StatusBadRequest)
		return
	}
	if !strings.ContainsFunc(q, isTermRune) {
		http.Error(w, "search: bad query: empty query", http.StatusBadRequest)
		return
	}
	k := 10
	if ks := params.Get("k"); ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v < 1 || v > 1000 {
			http.Error(w, `parameter "k" must be an integer in [1,1000]`, http.StatusBadRequest)
			return
		}
		k = v
	}
	rank := params.Get("rank")
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
	// The search does not take the request's context: a leader whose client
	// hangs up still finishes the microseconds of work its coalesced waiters
	// are waiting for, so no waiter can inherit another request's cancellation.
	body, err := s.cache.getOrCompute(queryKey{gen: g.ID, q: q, k: k, rank: rank}, func() ([]byte, error) {
		s.searches.Add(1)
		hits, err := g.ix.Search(q, opts)
		if err != nil {
			return nil, err
		}
		return s.encodeHits(g, hits)
	})
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, search.ErrBadQuery) {
			status = http.StatusBadRequest
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Quality-Generation", strconv.FormatUint(g.ID, 10))
	w.Write(body)
}

// encodeHits renders the JSON response body through a pooled buffer. The
// returned slice is a private copy, safe to cache and to hand to
// concurrent writers.
func (s *Service) encodeHits(g *Generation, hits []search.Hit) ([]byte, error) {
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
