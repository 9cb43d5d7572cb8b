package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pagequality/internal/crawler"
	"pagequality/internal/graph"
	"pagequality/internal/pagestore"
	"pagequality/internal/randx"
	"pagequality/internal/webserver"
)

// ingest measures §8.1's download path: one snapshot of the corpus is
// served over real loopback sockets and crawled with nproc fetchers, every
// body archived through pagestore.Put and the store synced. The webserver
// renders, the crawler extracts links, the pagestore compresses and
// writes; PageRank and search do nothing.
type ingest struct {
	site    *webserver.Server
	pages   int // pages of the corpus served
	ts      *httptest.Server
	n       int     // repetitions so far, names the archive directory
	graph   []byte  // the first repetition's crawled graph
	diffs   int     // repetitions whose graph differed
	lastDir string  // the latest repetition's sealed archive
	body    int64   // body bytes the latest repetition handed to Put
	disk    int64   // bytes its archive takes on disk after Close
	crcs    sampled // CRCs of the sampled bodies, as OnFetch saw them
	fetched int
}

// sampled records the CRC of about one body in 32, chosen by URL hash.
type sampled struct {
	mu  sync.Mutex
	crc map[string]uint32
}

func (s *sampled) see(key string, body []byte) {
	if randx.Key(key)%32 != 0 {
		return
	}
	s.mu.Lock()
	s.crc[key] = crc32.ChecksumIEEE(body)
	s.mu.Unlock()
}

func (w *ingest) setup(e *env) error {
	sim, err := newCrawledCorpus(e)
	if err != nil {
		return err
	}
	if w.site, err = siteHandler(sim); err != nil {
		return err
	}
	w.pages = sim.NumPages()
	w.ts = httptest.NewServer(w.site)
	return nil
}

// tracedTransport wraps the crawl client's transport with one span per
// round trip.
type tracedTransport struct {
	http.RoundTripper
	tr     *tracer
	parent *liveSpan
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := t.tr.begin(t.parent, "crawler.fetch")
	resp, err := t.RoundTripper.RoundTrip(req)
	sp.end()
	return resp, err
}

func (w *ingest) rep(e *env, tr *tracer) (repResult, error) {
	if w.lastDir != "" {
		if err := os.RemoveAll(w.lastDir); err != nil {
			return repResult{}, err
		}
	}
	w.n++
	dir := filepath.Join(e.tmp, fmt.Sprintf("ingest-%d", w.n))
	w.lastDir = dir
	w.crcs = sampled{crc: map[string]uint32{}}
	var body atomic.Int64
	client := w.ts.Client()

	t0 := time.Now()
	arch, err := pagestore.Open(dir, archiveOptions)
	if err != nil {
		return repResult{}, err
	}
	defer arch.Close()
	crawl := tr.begin(nil, "crawler.Crawl")
	if tr != nil {
		c := *client
		c.Transport = tracedTransport{client.Transport, tr, crawl}
		client = &c
	}
	res, err := crawlInto(e.ctx, arch, client, w.ts.URL, "t1", 0, e.nproc,
		func(key string, meta pagestore.Meta, b []byte) error {
			sp := tr.begin(crawl, "pagestore.Put")
			err := arch.Put(key, meta, b)
			sp.end()
			w.crcs.see(key, b)
			body.Add(int64(len(b)))
			return err
		})
	crawl.end()
	if err != nil {
		return repResult{}, err
	}
	sp := tr.begin(nil, "pagestore.Sync")
	err = arch.Sync()
	sp.end()
	if err != nil {
		return repResult{}, err
	}
	wall := time.Since(t0)

	r := repResult{wall: wall, ops: res.Stats.Fetched, attempted: res.Stats.Fetched + res.Stats.Errors, failed: res.Stats.Errors, opTime: per1000(wall, res.Stats.Fetched)}
	if arch.Len() != res.Stats.Fetched {
		return r, fmt.Errorf("ingest: archive holds %d records for %d fetched pages", arch.Len(), res.Stats.Fetched)
	}
	g := res.Graph.AppendBinary(nil)
	if w.graph == nil {
		w.graph = g
	} else if !bytes.Equal(g, w.graph) {
		w.diffs++
	}
	if err := arch.Close(); err != nil {
		return r, err
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return r, err
	}
	w.body, w.disk, w.fetched = body.Load(), disk, res.Stats.Fetched
	tr.count("crawler.retries", res.Stats.Retries)
	tr.count("crawler.errors", res.Stats.Errors)
	tr.count("crawler.fetched", res.Stats.Fetched)
	return r, nil
}

func (w *ingest) check(e *env) error {
	if w.diffs > 0 {
		return fmt.Errorf("ingest: %d repetitions crawled another graph than the first", w.diffs)
	}
	arch, err := pagestore.Open(w.lastDir, pagestore.Options{})
	if err != nil {
		return err
	}
	defer arch.Close()
	if len(w.crcs.crc) == 0 {
		return fmt.Errorf("ingest: no body was sampled")
	}
	keys := make([]string, 0, len(w.crcs.crc))
	for key := range w.crcs.crc {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		want := w.crcs.crc[key]
		_, body, err := arch.Get(key)
		if err != nil {
			return fmt.Errorf("ingest: sampled %s: %w", key, err)
		}
		if got := crc32.ChecksumIEEE(body); got != want {
			return fmt.Errorf("ingest: %s reads back with CRC %08x, fetched with %08x", key, got, want)
		}
	}
	e.logf("ingest: %d pages, %d sampled bodies read back intact, %.4f archive bytes per body byte",
		w.fetched, len(w.crcs.crc), float64(w.disk)/float64(w.body))
	return nil
}

func (w *ingest) probe(e *env, tr *tracer) error {
	crawls := float64(tr.total("crawler.Crawl").Count)
	e.layer["crawler.crawl_s"] = tr.meanMs("crawler.Crawl") / 1000
	e.layer["crawler.fetch_us"] = tr.meanUs("crawler.fetch")
	e.layer["crawler.fetched"] = float64(tr.counts["crawler.fetched"]) / crawls
	e.layer["crawler.retries"] = float64(tr.counts["crawler.retries"]) / crawls
	e.layer["crawler.errors"] = float64(tr.counts["crawler.errors"]) / crawls
	e.layer["pagestore.put_us"] = tr.meanUs("pagestore.Put")
	e.layer["pagestore.sync_ms"] = tr.meanMs("pagestore.Sync")
	e.layer["pagestore.body_bytes"] = float64(w.body)
	e.layer["pagestore.disk_bytes"] = float64(w.disk)

	// The handler alone, without sockets: every page once.
	var rendered int64
	sp := tr.begin(nil, "webserver.render")
	for id := 0; id < w.pages; id++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, webserver.PagePath(graph.NodeID(id)), nil)
		w.site.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("ingest: page %d renders with status %d", id, rec.Code)
		}
		rendered += int64(rec.Body.Len())
	}
	e.layer["webserver.render_us"] = us(sp.end()) / float64(w.pages)
	e.layer["webserver.page_bytes"] = float64(rendered) / float64(w.pages)

	return probeArchiveReads(e, tr, w.lastDir)
}

// probeArchiveReads times the pagestore's read path on a sealed archive
// (cold Open, then every live record of every segment) and link
// extraction replayed over the bodies read.
func probeArchiveReads(e *env, tr *tracer, dir string) error {
	sp := tr.begin(nil, "pagestore.Open")
	arch, err := pagestore.Open(dir, pagestore.Options{})
	e.layer["pagestore.open_ms"] = ms(sp.end())
	if err != nil {
		return err
	}
	defer arch.Close()
	segs := arch.SegmentIDs()
	e.layer["pagestore.segments"] = float64(len(segs))
	var read, extract time.Duration
	docs := 0
	for _, seg := range segs {
		sp := tr.begin(nil, "pagestore.ReadLive")
		recs, err := arch.ReadLive(seg)
		read += sp.end()
		if err != nil {
			return err
		}
		sp = tr.begin(nil, "crawler.ExtractLinks")
		for _, r := range recs {
			crawler.ExtractLinks(string(r.Body))
		}
		extract += sp.end()
		docs += len(recs)
	}
	e.layer["pagestore.readlive_ms"] = ms(read)
	e.layer["crawler.extract_us_per_page"] = us(extract) / float64(docs)
	return nil
}

func (w *ingest) close() {
	if w.ts != nil {
		w.ts.Close()
	}
}
