package serving

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pagequality/internal/crawler"
	"pagequality/internal/graph"
	"pagequality/internal/pagestore"
	"pagequality/internal/search"
	"pagequality/internal/snapshot"
)

// requireColdBuild holds g, built by a refresh, to a cold LoadGeneration
// of the same files: the URL table, the Float64bits of every quality and
// PageRank score, the vocabulary, the archived and dropped counts, and
// the /search bodies of searchBodies' queries.
func requireColdBuild(t *testing.T, cfg Config, g *Generation) {
	t.Helper()
	cold, err := LoadGeneration(cfg, g.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameBits := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	if !reflect.DeepEqual(g.urls, cold.urls) || !sameBits(g.qual, cold.qual) || !sameBits(g.pr, cold.pr) {
		t.Fatalf("generation %d: URL table or score bits differ from the cold build (%d docs, cold %d)", g.ID, len(g.urls), len(cold.urls))
	}
	if g.ix.NumTerms() != cold.ix.NumTerms() || g.archived != cold.archived || g.dropped != cold.dropped {
		t.Fatalf("generation %d: %d terms, %d archived, %d dropped; cold build %d, %d, %d",
			g.ID, g.ix.NumTerms(), g.archived, g.dropped, cold.ix.NumTerms(), cold.archived, cold.dropped)
	}
	serve := func(g *Generation) *Service {
		svc := &Service{cache: newQueryCache(0), lim: newLimiter(1, 0)}
		svc.gen.Store(g)
		return svc
	}
	if got, want := searchBodies(t, serve(g)), searchBodies(t, serve(cold)); got != want {
		t.Fatalf("generation %d: /search bodies crc %#08x, cold build %#08x", g.ID, got, want)
	}
}

// refreshed refreshes svc and checks how many of the label's records the
// build read afresh; every other one must be reused.
func refreshed(t *testing.T, svc *Service, analysed int) *Generation {
	t.Helper()
	g, err := svc.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if g.reused != g.archived-analysed {
		t.Fatalf("generation %d: %d of %d records reused; want all but %d", g.ID, g.reused, g.archived, analysed)
	}
	return g
}

// TestRefreshReusesUnchangedRecords: a refresh of unchanged files reads no
// body again, and gives the cold build's generation and /search bytes;
// /stats reports the counts.
func TestRefreshReusesUnchangedRecords(t *testing.T) {
	cfg := fixtureConfig(t)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g := svc.Generation(); g.reused != 0 || g.archived-g.dropped != g.NumDocs() {
		t.Fatalf("cold build: %d archived, %d dropped, %d reused, %d served", g.archived, g.dropped, g.reused, g.NumDocs())
	}
	g := refreshed(t, svc, 0)
	requireColdBuild(t, cfg, g)
	if got := searchBodies(t, svc); got != 0xb8b2e512 {
		t.Fatalf("crc of /search bodies after a refresh %#08x, want TestSearchBodiesPinned's", got)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()
	stats, _ := getStats(t, ts.Client(), ts.URL)
	if a := stats["refresh_archived"]; a != 125 || stats["refresh_reused"] != a || stats["refresh_analysed"] != 0 ||
		stats["refresh_dropped_not_common"] != a-stats["documents"] {
		t.Fatalf("/stats after a refresh of unchanged files: %v", stats)
	}
}

// TestRefreshReadsRewrittenRecord: a record rewritten under the same key
// with a different body is the one record read afresh.
func TestRefreshReadsRewrittenRecord(t *testing.T) {
	cfg := fixtureConfig(t)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	served := map[string]bool{}
	for _, u := range svc.Generation().urls {
		served[u] = true
	}
	arch, err := pagestore.Open(cfg.ArchiveDir, pagestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range archiveKeys(t, arch, "t3/") {
		meta, body, err := arch.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if served[crawler.Canonical(string(body))] {
			body = bytes.Replace(body, []byte("</body>"), []byte("<p>astronomy zebraquux</p></body>"), 1)
			if err := arch.Put(k, meta, body); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	g := refreshed(t, svc, 1)
	requireColdBuild(t, cfg, g)
	if hits, err := g.ix.Search("zebraquux", search.Options{}); err != nil || len(hits) != 1 {
		t.Fatalf("the rewritten body is not served: %d hits, err %v", len(hits), err)
	}
}

// TestRefreshAfterCrawlAppended: a fourth crawl that lacks every fifth
// page of the third shrinks the common set and moves PageRank, and every
// record is still reused. Taking the crawl away again serves those pages
// once more, still from the analyses the cold build made.
func TestRefreshAfterCrawlAppended(t *testing.T) {
	cfg := fixtureConfig(t)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g1 := svc.Generation()
	snaps, err := snapshot.ReadFile(cfg.StorePath)
	if err != nil {
		t.Fatal(err)
	}
	t3 := snaps[2].Graph
	t4 := graph.New(t3.NumNodes())
	remap := make(map[graph.NodeID]graph.NodeID)
	for id := graph.NodeID(0); int(id) < t3.NumNodes(); id++ {
		if id%5 != 0 {
			remap[id] = t4.MustAddPage(t3.Page(id))
		}
	}
	for id := graph.NodeID(0); int(id) < t3.NumNodes(); id++ {
		for _, to := range t3.OutLinks(id) {
			if from, ok := remap[id]; ok {
				if to, ok := remap[to]; ok {
					t4.AddLink(from, to)
				}
			}
		}
	}
	if _, err := snapshot.AppendFile(cfg.StorePath, snapshot.Snapshot{Label: "t4", Time: 12, Graph: t4}); err != nil {
		t.Fatal(err)
	}
	g := refreshed(t, svc, 0)
	if g.dropped <= g1.dropped {
		t.Fatalf("the fourth crawl dropped %d pages, the three crawls %d", g.dropped, g1.dropped)
	}
	requireColdBuild(t, cfg, g)

	if err := snapshot.WriteFile(cfg.StorePath, snaps); err != nil {
		t.Fatal(err)
	}
	requireColdBuild(t, cfg, refreshed(t, svc, 0))
}

// TestRefreshChecksReusedRecords: a reused record whose checksum no
// longer matches — one byte of its CRC flipped, so its stored bytes are
// unchanged — fails the refresh with ErrCorrupt. The record sits in a
// sealed segment, which Open indexes from the footer without reading
// it, so only the refresh's own check can notice. The old generation
// keeps serving and /stats shows the error.
func TestRefreshChecksReusedRecords(t *testing.T) {
	cfg := serviceConfig(crawlFixture(t, fixtureCorpus(), fixtureText, pagestore.Options{MaxSegmentBytes: 16 << 10}))
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := refreshed(t, svc, 0)

	arch, err := pagestore.Open(cfg.ArchiveDir, pagestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := archiveKeys(t, arch, "t3/")
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(cfg.ArchiveDir, "seg-*.dat"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("%d segments, err %v", len(segs), err)
	}
	flipped := false
	for _, seg := range segs[:len(segs)-1] { // sealed: the last is the active segment
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			// A record: 0xA7, key length, key, 8 bytes of time, status,
			// body length, body, CRC-32.
			p := bytes.Index(data, []byte(k))
			if p < 2 || data[p-2] != 0xA7 || int(data[p-1]) != len(k) {
				continue
			}
			p += len(k) + 8
			for field := 0; field < 2; field++ {
				v, n := binary.Uvarint(data[p:])
				p += n
				if field == 1 {
					p += int(v)
				}
			}
			data[p] ^= 0xff
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}
			flipped = true
			break
		}
		if flipped {
			break
		}
	}
	if !flipped {
		t.Fatal("no t3 record in a sealed segment")
	}

	if _, err := svc.Refresh(); !errors.Is(err, pagestore.ErrCorrupt) {
		t.Fatalf("refresh over a record failing its checksum: %v, want ErrCorrupt", err)
	}
	if svc.Generation() != live {
		t.Fatal("a failed refresh swapped the generation")
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()
	resp, err := httpGet(ts.Client(), ts.URL+"/search?q=astronomy")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Quality-Generation") != "2" {
		t.Fatalf("search after the failed refresh: status %d from generation %q", resp.StatusCode, resp.Header.Get("X-Quality-Generation"))
	}
	stats, lastErr := getStats(t, ts.Client(), ts.URL)
	if stats["generation"] != 2 || stats["refresh_failures"] != 1 || lastErr == "" || stats["refresh_reused"] != uint64(live.archived) {
		t.Fatalf("after the failed refresh: %v, last_refresh_error %q", stats, lastErr)
	}
}
