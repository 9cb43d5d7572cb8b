// Package crawler implements the Web-download substrate of the paper's
// experiment (§8.1): a concurrent HTTP crawler that starts from seed
// pages, follows anchors until no new pages are reachable or a per-site
// page cap is hit ("we downloaded pages from each site until we could not
// reach any more pages or we downloaded the maximum of 200,000 pages"),
// and reconstructs the directed link graph. Pages are keyed by their
// rel=canonical URL when present, so crawls of different server instances
// align snapshot to snapshot.
//
// The paper's crawls ran for months against 154 real sites, so the
// substrate is built to survive flaky servers without distorting the
// graph: transient failures (network errors, timeouts, 429/503) retry
// with deterministic exponential backoff, permanently failed URLs refund
// the page budgets they held, hosts that keep failing degrade into a
// skip state instead of burning the caps, and a crawl stopped part-way
// resumes from the documents it archived (Config.Archived).
package crawler

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"pagequality/internal/graph"
	"pagequality/internal/search"
)

// Config parameterises a crawl.
type Config struct {
	// Seeds are the absolute URLs to start from.
	Seeds []string
	// MaxPagesPerSite caps the pages fetched per canonical host (the
	// paper used 200 000). Zero means unlimited.
	MaxPagesPerSite int
	// MaxPages caps the total fetched pages. Zero means unlimited.
	MaxPages int
	// Concurrency is the number of parallel fetchers (default 8), and of
	// the goroutines that hand their bodies to OnFetch.
	Concurrency int
	// Client performs the requests (default http.DefaultClient).
	Client *http.Client
	// RequestTimeout bounds each individual fetch attempt via its request
	// context. Zero means no per-attempt deadline (the Client's own
	// Timeout, if any, still applies).
	RequestTimeout time.Duration
	// Retry configures transient-failure retries and backoff.
	Retry Retry
	// MaxHostErrors is the per-host error budget: once this many URLs of
	// one host have ultimately failed (after retries), the host degrades —
	// its remaining URLs are skipped without fetching instead of burning
	// the page caps. Zero disables degrading.
	MaxHostErrors int
	// OnFetch, when non-nil, receives every successfully fetched document
	// (e.g. to archive it into a pagestore). It runs on the archive stage:
	// a fetcher queues its body (at most Concurrency wait) and fetches
	// again, while Concurrency archive goroutines call OnFetch, so it must
	// be safe for concurrent use. Every call has returned before Crawl
	// returns, interrupted or not. An OnFetch that blocks fills the queue
	// and so holds the fetchers back.
	OnFetch func(fetchURL string, body []byte)
	// Interrupt, when non-nil, stops the crawl gracefully once closed:
	// in-flight fetches finish and reach OnFetch, the rest of the frontier
	// is dropped, and Result.Interrupted is set.
	Interrupt <-chan struct{}
	// Archived holds the documents an earlier, interrupted run of this
	// crawl fetched, as its OnFetch archived them. Each is parsed as
	// Assemble parses it, charged to the page caps, marked visited and
	// added to the graph, and its links are enqueued, so the frontier is
	// rebuilt and no archived URL is fetched again: Result.Graph covers
	// both runs, and Result.Stats counts this run only.
	Archived []Document
}

// ErrBadConfig reports invalid crawler configuration.
var ErrBadConfig = errors.New("crawler: bad config")

// maxBodyBytes bounds how much of each response is read.
const maxBodyBytes = 1 << 20

func (c *Config) fill() error {
	if len(c.Seeds) == 0 {
		return fmt.Errorf("%w: no seeds", ErrBadConfig)
	}
	if c.Concurrency == 0 {
		c.Concurrency = 8
	}
	if c.Concurrency < 1 {
		return fmt.Errorf("%w: Concurrency=%d", ErrBadConfig, c.Concurrency)
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.MaxPagesPerSite < 0 || c.MaxPages < 0 {
		return fmt.Errorf("%w: negative page caps", ErrBadConfig)
	}
	if c.RequestTimeout < 0 {
		return fmt.Errorf("%w: RequestTimeout=%v", ErrBadConfig, c.RequestTimeout)
	}
	if c.MaxHostErrors < 0 {
		return fmt.Errorf("%w: MaxHostErrors=%d", ErrBadConfig, c.MaxHostErrors)
	}
	return c.Retry.fill()
}

// Stats summarises a crawl.
type Stats struct {
	Fetched       int // pages fetched successfully
	Errors        int // URLs that ultimately failed, after retries
	Retries       int // extra attempts made after transient failures
	Timeouts      int // attempts that exceeded a deadline
	RateLimited   int // attempts answered 429 Too Many Requests
	HostsDegraded int // hosts disabled after exhausting MaxHostErrors
	SkippedCaps   int // frontier entries dropped by the page caps
	SkippedRobots int // frontier entries disallowed by robots.txt
}

// Result is the outcome of a crawl: the reconstructed link graph (pages
// keyed by canonical URL) plus accounting.
type Result struct {
	Graph *graph.Graph
	Stats Stats
	// Interrupted reports that Config.Interrupt stopped the crawl early.
	Interrupted bool
}

// page is one fetched document, recorded under its fetch URL.
type page struct {
	fetchURL  string   // normalised absolute URL the page was fetched from
	canonical string   // canonical URL (falls back to fetchURL)
	links     []string // normalised absolute target URLs
}

// robotsEntry is one host's lazily fetched rules; once guarantees a single
// fetch per host even when several workers miss the cache together.
type robotsEntry struct {
	once  sync.Once
	rules *robotsRules
}

// errHostDegraded marks a URL that was skipped, not fetched, because its
// host exhausted the error budget.
var errHostDegraded = errors.New("crawler: host degraded")

// crawl is the shared state of one Crawl invocation. All maps and slices
// are guarded by mu; fetching and backoff sleeps happen without it.
type crawl struct {
	cfg  Config
	mu   sync.Mutex
	cond *sync.Cond

	visited  map[string]bool         // every URL ever admitted (dedup)
	admitted int                     // URLs currently holding MaxPages budget
	perSite  map[string]int          // URLs currently holding per-site budget
	robots   map[string]*robotsEntry // per-host robots rules
	hostErrs map[string]int          // ultimately-failed URLs per host
	degraded map[string]bool         // hosts past the error budget

	pages       []page
	stats       Stats
	pending     int
	frontier    []string
	interrupted bool

	// archive carries fetched bodies to OnFetch; nil without one. Its
	// capacity, Concurrency, gives each archiver a body ready behind the
	// one it is on, and caps what a blocked OnFetch leaves waiting.
	archive chan Document
}

// Crawl performs a full crawl and reconstructs the link graph.
func Crawl(cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	c := &crawl{
		cfg:      cfg,
		visited:  make(map[string]bool),
		perSite:  make(map[string]int),
		robots:   make(map[string]*robotsEntry),
		hostErrs: make(map[string]int),
		degraded: make(map[string]bool),
	}
	c.cond = sync.NewCond(&c.mu)

	for _, d := range cfg.Archived {
		pg, err := parsePage(d.FetchURL, d.Body)
		if err != nil {
			return nil, fmt.Errorf("crawler: archived %s: %w", d.FetchURL, err)
		}
		c.visited[d.FetchURL] = true
		c.admitted++
		if cfg.MaxPagesPerSite > 0 {
			c.perSite[hostOf(d.FetchURL)]++
		}
		c.pages = append(c.pages, pg)
	}
	if cfg.Interrupt != nil {
		// The watcher leaves before Crawl returns, so an Interrupt that is
		// never closed does not keep it blocked.
		done, left := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(left)
			select {
			case <-cfg.Interrupt:
			case <-done:
				return
			}
			c.mu.Lock()
			c.interrupted = true
			c.cond.Broadcast()
			c.mu.Unlock()
		}()
		defer func() { close(done); <-left }()
	}

	c.mu.Lock()
	for _, s := range cfg.Seeds {
		u, err := resolveURL(s, nil)
		if err != nil {
			c.mu.Unlock()
			return nil, fmt.Errorf("crawler: seed %q: %w", s, err)
		}
		c.enqueueLocked(u.String())
	}
	// Every archived URL is visited before any link is enqueued.
	for _, pg := range c.pages {
		for _, link := range pg.links {
			c.enqueueLocked(link)
		}
	}
	c.mu.Unlock()

	// Two stages overlap: the fetchers queue each body and fetch again,
	// and as many archivers drain the queue into OnFetch.
	var archivers sync.WaitGroup
	if cfg.OnFetch != nil {
		c.archive = make(chan Document, cfg.Concurrency)
		for w := 0; w < cfg.Concurrency; w++ {
			archivers.Add(1)
			go func() {
				defer archivers.Done()
				for d := range c.archive {
					cfg.OnFetch(d.FetchURL, d.Body)
				}
			}()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u, ok := c.next()
				if !ok {
					return
				}
				pg, body, err := c.fetchWithRetry(u)
				c.complete(u, pg, body, err)
			}
		}()
	}
	wg.Wait()
	if c.archive != nil {
		close(c.archive)
	}

	res, err := assemble(c.pages, c.stats)
	archivers.Wait() // the graph is built while the archive drains
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	res.Interrupted = c.interrupted
	c.mu.Unlock()
	return res, nil
}

// next pops a frontier URL, blocking until one appears or the crawl ends.
func (c *crawl) next() (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.frontier) == 0 && c.pending > 0 && !c.interrupted {
		c.cond.Wait()
	}
	if c.interrupted || len(c.frontier) == 0 {
		// Done or interrupted; wake the others and leave the remaining
		// frontier unfetched.
		c.cond.Broadcast()
		return "", false
	}
	u := c.frontier[len(c.frontier)-1]
	c.frontier = c.frontier[:len(c.frontier)-1]
	return u, true
}

// fetchWithRetry drives the retry engine for one URL: transient failures
// back off (deterministic jitter, Retry-After honoured) and try again up
// to Retry.MaxAttempts; permanent failures and degraded hosts return
// immediately. No locks are held while fetching or sleeping.
func (c *crawl) fetchWithRetry(u string) (page, []byte, error) {
	host := hostOf(u)
	var lastErr error
	for attempt := 1; ; attempt++ {
		c.mu.Lock()
		degraded := c.degraded[host]
		stopped := c.interrupted
		c.mu.Unlock()
		if degraded {
			return page{}, nil, errHostDegraded
		}
		if stopped && attempt > 1 {
			return page{}, nil, lastErr // shutting down: stop retrying
		}
		pg, body, err := fetch(c.cfg.Client, u, c.cfg.RequestTimeout)
		if err == nil {
			return pg, body, nil
		}
		lastErr = err
		c.mu.Lock()
		if isTimeout(err) {
			c.stats.Timeouts++
		}
		if isRateLimited(err) {
			c.stats.RateLimited++
		}
		c.mu.Unlock()
		if classify(err) != classTransient || attempt >= c.cfg.Retry.MaxAttempts {
			return page{}, nil, err
		}
		c.mu.Lock()
		c.stats.Retries++
		c.mu.Unlock()
		c.cfg.Retry.Sleep(c.cfg.Retry.backoff(u, attempt, retryAfterOf(err)))
	}
}

// complete records one URL's outcome: successes feed the graph and the
// frontier; failures refund the page budgets they held and charge the
// host's error budget.
func (c *crawl) complete(u string, pg page, body []byte, err error) {
	if err == nil && c.archive != nil {
		c.archive <- Document{FetchURL: u, Body: body}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case err == nil:
		c.stats.Fetched++
		c.pages = append(c.pages, pg)
		for _, link := range pg.links {
			c.enqueueLocked(link)
		}
	case errors.Is(err, errHostDegraded):
		// Not the URL's own failure: the host is not charged again.
		c.refundLocked(u)
	default:
		c.stats.Errors++
		c.refundLocked(u)
		host := hostOf(u)
		c.hostErrs[host]++
		if c.cfg.MaxHostErrors > 0 && c.hostErrs[host] >= c.cfg.MaxHostErrors && !c.degraded[host] {
			c.degraded[host] = true
			c.stats.HostsDegraded++
		}
	}
	c.pending--
	if c.pending == 0 {
		c.cond.Broadcast()
	}
}

// refundLocked returns the page budgets a failed URL was holding, so a
// site answering errors cannot exhaust its own cap with zero pages.
func (c *crawl) refundLocked(u string) {
	c.admitted--
	if c.cfg.MaxPagesPerSite > 0 {
		c.perSite[hostOf(u)]--
	}
}

// robotsForLocked lazily loads one host's rules. Callers hold mu; the
// fetch happens without it, and sync.Once guarantees one fetch per host
// no matter how many workers miss the cache concurrently.
func (c *crawl) robotsForLocked(host string) *robotsRules {
	e, ok := c.robots[host]
	if !ok {
		e = &robotsEntry{}
		c.robots[host] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.rules = fetchRobots(c.cfg.Client, host, c.cfg.RequestTimeout)
	})
	c.mu.Lock() //pqlint:allow lockleak re-acquires for the caller; the *Locked contract is enter and leave locked
	return e.rules
}

// enqueueLocked admits u to the frontier if new, robots-allowed and under
// the caps.
func (c *crawl) enqueueLocked(u string) {
	if c.visited[u] {
		return
	}
	pu, err := url.Parse(u)
	if err != nil {
		return
	}
	host := pu.Scheme + "://" + pu.Host // hostOf(u), the key refundLocked and Archived use
	if !c.robotsForLocked(host).allowed(pu.Path) {
		c.stats.SkippedRobots++
		return
	}
	if c.visited[u] {
		return // robots fetch released the lock; re-check
	}
	if c.cfg.MaxPages > 0 && c.admitted >= c.cfg.MaxPages {
		c.stats.SkippedCaps++
		return
	}
	if c.cfg.MaxPagesPerSite > 0 {
		if c.perSite[host] >= c.cfg.MaxPagesPerSite {
			c.stats.SkippedCaps++
			return
		}
		c.perSite[host]++
	}
	c.visited[u] = true
	c.admitted++
	c.frontier = append(c.frontier, u)
	c.pending++
	c.cond.Signal()
}

// fetch downloads one page and extracts its links, returning the raw body
// for optional archiving. A positive timeout bounds the whole attempt via
// the request context.
func fetch(client *http.Client, u string, timeout time.Duration) (page, []byte, error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return page{}, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return page{}, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodyBytes))
		return page{}, nil, &HTTPError{URL: u, Status: resp.StatusCode, RetryAfter: parseRetryAfter(resp)}
	}
	body, err := readBody(resp)
	if err != nil {
		return page{}, nil, err
	}
	// The page is recorded under the URL we asked for (visited-set and
	// archive key), but redirects may have landed elsewhere: relative
	// hrefs resolve against the URL the response actually came from.
	pg, err := parsePageAt(u, resp.Request.URL, body)
	if err != nil {
		return page{}, nil, err
	}
	return pg, body, nil
}

// readBody reads at most maxBodyBytes of a response. A declared length
// within the limit is read into one slice of exactly that size; the
// transport fails a body shorter than it declares, as io.ReadAll would.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxBodyBytes {
		body := make([]byte, n)
		_, err := io.ReadFull(resp.Body, body)
		return body, err
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
}

// parsePage extracts the canonical URL and same-host links of a document
// fetched from fetchURL, resolving links against fetchURL itself.
func parsePage(fetchURL string, body []byte) (page, error) {
	base, err := url.Parse(fetchURL)
	if err != nil {
		return page{}, err
	}
	return parsePageAt(fetchURL, base, body)
}

// parsePageAt extracts the canonical URL and links of a document recorded
// under fetchURL whose content was served from base (they differ after a
// redirect). Relative hrefs resolve against base, and the same-host
// filter keeps links on base's host — the server that actually answered.
func parsePageAt(fetchURL string, base *url.URL, body []byte) (page, error) {
	hrefs, canonical := ExtractLinks(string(body))
	pg := page{fetchURL: fetchURL, canonical: canonical}
	if pg.canonical == "" {
		pg.canonical = fetchURL
	}
	// The same-host test belongs to a link's printed form, the URL the
	// crawl fetches. Its parsed fields name the same host except in a URL
	// without a host (the path "//evil/p" prints as http://evil/p) and in
	// a host that does not survive escaping (a raw byte in an IPv6 zone):
	// only those links are parsed a second time, from their printed form.
	origin := (&url.URL{Scheme: base.Scheme, Host: base.Host}).String()
	exact := hostOf(origin) == base.Scheme+"://"+base.Host
	// net/url resolves and prints a plain rooted path unchanged behind the
	// printed origin, so on an exact base that concatenation is the link,
	// byte for byte. A base without a scheme resolves no link, and one with
	// userinfo prints it.
	fast := exact && base.Scheme != "" && base.Host != "" && base.User == nil
	for _, h := range hrefs {
		if fast && plainRootedPath(h) {
			pg.links = append(pg.links, origin+h)
			continue
		}
		u, err := resolveURL(h, base)
		if err != nil {
			continue // unparseable link: skip, as real crawlers do
		}
		n := u.String()
		if u.Host == "" || !exact {
			if u, err = url.Parse(n); err != nil {
				continue
			}
		}
		// Stay on the crawled server: same scheme and host as the base.
		if u.Scheme != base.Scheme || u.Host != base.Host {
			continue
		}
		pg.links = append(pg.links, n)
	}
	return pg, nil
}

// plainRootedPath reports whether h is one '/' followed by non-empty
// segments of unreserved bytes, none starting with '.': a path no step of
// resolution (trimming, escaping, dot removal, query or fragment) touches.
func plainRootedPath(h string) bool {
	if len(h) < 2 || h[0] != '/' || h[len(h)-1] == '/' {
		return false
	}
	for i := 1; i < len(h); i++ {
		switch c := h[i]; {
		case c == '/' || c == '.':
			if h[i-1] == '/' {
				return false // empty or dot-led segment
			}
		case !search.IsNameByte(c) && c != '-' && c != '_' && c != '~':
			return false
		}
	}
	return true
}

// Document is one archived crawl document for offline re-extraction.
type Document struct {
	// FetchURL is the URL the document was downloaded from.
	FetchURL string
	// Body is the raw HTML.
	Body []byte
}

// Assemble rebuilds the link graph from archived documents without
// re-fetching anything — the standard decoupling of a crawl pipeline
// (fetch once, re-parse at will when the extractor improves).
func Assemble(docs []Document) (*Result, error) {
	pages := make([]page, 0, len(docs))
	var stats Stats
	for _, d := range docs {
		pg, err := parsePage(d.FetchURL, d.Body)
		if err != nil {
			return nil, fmt.Errorf("crawler: assemble %s: %w", d.FetchURL, err)
		}
		stats.Fetched++
		pages = append(pages, pg)
	}
	return assemble(pages, stats)
}

// resolveURL resolves ref against base (may be nil for absolute URLs)
// and strips the fragment.
func resolveURL(ref string, base *url.URL) (*url.URL, error) {
	u, err := url.Parse(strings.TrimSpace(ref))
	if err != nil {
		return nil, err
	}
	if base != nil {
		u = base.ResolveReference(u)
	}
	if !u.IsAbs() {
		return nil, fmt.Errorf("crawler: relative URL %q without base", ref)
	}
	u.Fragment = ""
	return u, nil
}

func hostOf(u string) string {
	p, err := url.Parse(u)
	if err != nil {
		return ""
	}
	return p.Scheme + "://" + p.Host
}

// assemble builds the canonical-URL link graph from the fetched pages.
// Duplicate-canonical fetches merge; links to unfetched pages are dropped
// (they were never downloaded, so the crawl cannot know their content).
// A page whose canonical URL the graph cannot store is dropped the same
// way, as if it had never been fetched.
//
// Nodes are the sorted canonical URLs, and sorting the pages by canonical
// URL also groups each node's pages together. A link costs one map lookup,
// fetch URL to node; a stamp per target drops a source's repeated links.
// The in-lists fill in ascending source order and the out-lists are their
// transpose, so both come out sorted whatever the fetch order was: the
// graph equals its own AppendBinary/DecodeBinary round trip.
func assemble(pages []page, stats Stats) (*Result, error) {
	pages = slices.DeleteFunc(pages, func(p page) bool { return len(p.canonical) > graph.MaxURLLen })
	order := make([]int, len(pages))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(pages[a].canonical, pages[b].canonical) })
	g := graph.New(len(pages))
	nodeOf := make([]graph.NodeID, len(pages))
	for k, i := range order {
		if k == 0 || pages[i].canonical != pages[order[k-1]].canonical {
			if _, err := g.AddPage(graph.Page{URL: pages[i].canonical, Site: -1}); err != nil {
				return nil, err
			}
		}
		nodeOf[i] = graph.NodeID(g.NumNodes() - 1)
	}
	idOf := make(map[string]graph.NodeID, len(pages)) // fetch URL -> node
	for i, p := range pages {
		idOf[p.fetchURL] = nodeOf[i]
	}
	stamp := make([]graph.NodeID, g.NumNodes()) // stamp[to] == from+1: from -> to is in
	for _, i := range order {
		from := nodeOf[i]
		for _, link := range pages[i].links {
			if to, ok := idOf[link]; ok && to != from && stamp[to] != from+1 {
				stamp[to] = from + 1
				g.AddInLink(from, to)
			}
		}
	}
	for to := graph.NodeID(0); int(to) < g.NumNodes(); to++ {
		for _, from := range g.InLinks(to) {
			g.CommitOut(from, to, true)
		}
	}
	return &Result{Graph: g, Stats: stats}, nil
}

// FetchSeeds downloads a newline-separated seed list (such as the
// webserver's /seeds.txt) and resolves each entry against the list's URL.
// The request carries ctx, so a caller deadline or cancellation aborts
// the download.
func FetchSeeds(ctx context.Context, client *http.Client, listURL string) ([]string, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, listURL, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("crawler: seeds %s: status %d", listURL, resp.StatusCode)
	}
	body, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	base, err := url.Parse(listURL)
	if err != nil {
		return nil, err
	}
	var seeds []string
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		u, err := resolveURL(line, base)
		if err != nil {
			return nil, fmt.Errorf("crawler: seed line %q: %w", line, err)
		}
		seeds = append(seeds, u.String())
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("crawler: empty seed list at %s", listURL)
	}
	return seeds, nil
}
