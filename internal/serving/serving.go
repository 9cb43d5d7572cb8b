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
// a frozen flat posting layout; a blended mode visits the matches in the
// generation's precomputed authority order and stops once none left can
// rank; a response is appended onto JSON fragments each generation
// renders once per document, so a miss formats only its scores; and an
// LRU cache keyed on (generation, query, k, rank)
// short-cuts repeated queries, with per-key singleflight so a thundering
// herd on a cold key runs the search once. An admission limiter
// (Config.MaxInflight, Config.MaxWait) bounds concurrent searches: on
// saturation the excess is shed with 503 + Retry-After instead of
// queueing without bound, so latency for admitted requests stays pinned.
//
// The serving state — index, score vectors, URL table, hit fragments —
// lives in an immutable Generation behind an atomic pointer. Refresh
// rebuilds the next generation from the store off the request path and
// swaps it in RCU-style: in-flight queries keep the generation they
// loaded, new queries see the new one, and no request ever observes a
// mix. Cache keys carry the generation id, so a swap invalidates every
// cached response without racing the readers.
package serving

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
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
// the per-document score vectors and their authority orders, the URL
// table and the JSON each hit repeats, all derived from a single read of
// the crawl series. A query loads the current generation exactly once
// and touches only its fields, so every response is internally
// consistent even when a refresh swaps generations mid-flight.
type Generation struct {
	ID   uint64
	ix   *search.Index
	urls []string // doc id -> canonical URL
	qual []float64
	pr   []float64
	// qualOrder and prOrder rank every document by qual and by pr: the
	// blended modes select by walking them (search.Options.Order).
	qualOrder *search.AuthorityOrder
	prOrder   *search.AuthorityOrder
	// frag holds every document's two JSON fragments back to back: doc
	// d's head `{"url":<url>,"score":` is frag[fragOff[2d]:fragOff[2d+1]],
	// its tail `,"quality":<q>,"pagerank":<pr>}` runs on to fragOff[2d+2].
	frag    []byte
	fragOff []int
}

// newGeneration freezes ix — once, so no reader pays (or races on) the
// lazy posting-layout build after the swap — renders what a hit on each
// document always says: its URL, quality and PageRank, and sorts the
// documents by each score. A non-finite score has no JSON form, so it
// fails the generation instead of every query that ranks the document.
func newGeneration(id uint64, ix *search.Index, urls []string, qual, pr []float64) (*Generation, error) {
	ix.Freeze()
	g := &Generation{ID: id, ix: ix, urls: urls, qual: qual, pr: pr, fragOff: make([]int, 0, 2*len(urls)+1)}
	for d, u := range urls {
		// encoding/json escapes the URL, so HTML-escaping, U+2028/2029 and
		// invalid-UTF-8 replacement are the json.Encoder's own.
		esc, err := json.Marshal(u)
		if err != nil {
			return nil, err
		}
		g.fragOff = append(g.fragOff, len(g.frag))
		g.frag = append(append(append(g.frag, `{"url":`...), esc...), `,"score":`...)
		g.fragOff = append(g.fragOff, len(g.frag))
		if g.frag, err = appendJSONFloat(append(g.frag, `,"quality":`...), qual[d]); err != nil {
			return nil, fmt.Errorf("serving: %s: quality: %w", u, err)
		}
		if g.frag, err = appendJSONFloat(append(g.frag, `,"pagerank":`...), pr[d]); err != nil {
			return nil, fmt.Errorf("serving: %s: pagerank: %w", u, err)
		}
		g.frag = append(g.frag, '}')
	}
	g.fragOff = append(g.fragOff, len(g.frag))
	var err error
	if g.qualOrder, err = search.NewAuthorityOrder(qual); err != nil {
		return nil, err
	}
	if g.prOrder, err = search.NewAuthorityOrder(pr); err != nil {
		return nil, err
	}
	return g, nil
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

	ix := search.NewIndex()
	urls := make([]string, 0, len(docs))
	qual := make([]float64, 0, len(docs))
	pr := make([]float64, 0, len(docs))
	for _, d := range docs {
		if doc := ix.AddAnalyzed(d.terms); doc != len(urls) {
			return nil, fmt.Errorf("serving: document id drift")
		}
		urls = append(urls, d.canonical)
		qual = append(qual, est.Q[d.ai])
		pr = append(pr, cur[d.ai])
	}
	if ix.NumDocs() == 0 {
		return nil, fmt.Errorf("serving: no indexable documents matched the common pages")
	}
	return newGeneration(id, ix, urls, qual, pr)
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
		opts.Authority, opts.Order = g.qual, g.qualOrder
		opts.AuthorityWeight = 0.7
	case "pagerank":
		opts.Authority, opts.Order = g.pr, g.prOrder
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
		return g.encodeHits(hits)
	})
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, search.ErrBadQuery) {
			status = http.StatusBadRequest
		}
		http.Error(w, err.Error(), status)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Quality-Generation", strconv.FormatUint(g.ID, 10))
	// A declared length: a body past net/http's 2 KiB buffer would
	// otherwise go out chunked.
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// encodeHits renders hits byte for byte as json.Encoder renders the
// array of {url, score, relevance, quality, pagerank} objects: per hit
// the document's head fragment, the score, the relevance and its tail
// fragment. The numbers are formatted first, into stack scratch, so the
// body is allocated once at exactly its length — a cached body carries no
// spare capacity — and is never written again, safe to cache and to hand
// to concurrent writers.
func (g *Generation) encodeHits(hits []search.Hit) ([]byte, error) {
	var scratch [4 << 10]byte
	// Per hit `<score>,"relevance":<relevance>` and a '\n', which no JSON
	// number contains; in the body the n newlines become n-1 commas.
	nums := scratch[:0]
	size := len("[]\n")
	for _, h := range hits {
		var err error
		if nums, err = appendJSONFloat(nums, h.Score); err != nil {
			return nil, err
		}
		if nums, err = appendJSONFloat(append(nums, `,"relevance":`...), h.Relevance); err != nil {
			return nil, err
		}
		nums = append(nums, '\n')
		size += g.fragOff[2*h.Doc+2] - g.fragOff[2*h.Doc]
	}
	size += len(nums)
	if len(hits) > 0 {
		size--
	}
	body := append(make([]byte, 0, size), '[')
	for i, h := range hits {
		if i > 0 {
			body = append(body, ',')
		}
		n := bytes.IndexByte(nums, '\n')
		body = append(body, g.frag[g.fragOff[2*h.Doc]:g.fragOff[2*h.Doc+1]]...)
		body = append(body, nums[:n]...)
		body = append(body, g.frag[g.fragOff[2*h.Doc+1]:g.fragOff[2*h.Doc+2]]...)
		nums = nums[n+1:]
	}
	return append(body, "]\n"...), nil
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest form that reads back as f, in 'f' notation unless
// 0 < |f| < 1e-6 or |f| >= 1e21, where it is 'e' with a one-digit
// exponent's leading zero dropped (e-07 → e-7). NaN and ±Inf have no
// JSON form; the error is encoding/json's.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}
