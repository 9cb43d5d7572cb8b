package serving

import (
	"hash/crc32"
	"io"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"

	"pagequality/internal/crawler"
	"pagequality/internal/graph"
	"pagequality/internal/pagestore"
	"pagequality/internal/search"
	"pagequality/internal/webcorpus"
)

// TestDocumentsAreVisibleText checks what the served index holds for each
// page of the fixture's last crawl, t3:
//   - no document holds a tag or attribute name of the rendered markup;
//   - no document holds a token of a page it links to, unless its own
//     URL or text holds that token too: anchor text is not indexed;
//   - each archived page analyses to its own URL's tokens twice (its
//     <title> and its <h1>) plus the words it was drawn with, through
//     PageText, which renders the words webcorpus's refresh counts with
//     its Lexicon (TestLexiconMatchesAnalyze holds the two equal).
func TestDocumentsAreVisibleText(t *testing.T) {
	cfg := fixtureCorpus()
	storePath, archiveDir := crawlFixture(t, cfg, fixtureText, pagestore.Options{})
	g, err := LoadGeneration(serviceConfig(storePath, archiveDir), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := webcorpus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, week := range []float64{0, 4, 8} { // crawlFixture's crawls; t3 is week 8
		sim.AdvanceTo(week)
	}
	web := sim.Graph()
	byURL := make(map[string]graph.NodeID, web.NumNodes())
	for id := graph.NodeID(0); int(id) < web.NumNodes(); id++ {
		byURL[web.Page(id).URL] = id
	}

	holders := make(map[string]map[int]bool) // term -> the documents holding it
	holding := func(term string) map[int]bool {
		if h, ok := holders[term]; ok {
			return h
		}
		hits, err := g.ix.Search(term, search.Options{TopK: g.ix.NumDocs()})
		if err != nil {
			t.Fatal(err)
		}
		h := make(map[int]bool, len(hits))
		for _, hit := range hits {
			h[hit.Doc] = true
		}
		holders[term] = h
		return h
	}
	for _, term := range []string{"li", "a", "href", "html"} {
		if n := len(holding(term)); n > 0 {
			t.Errorf("%d documents hold markup term %q", n, term)
		}
	}
	foreign := 0
	for d, u := range g.urls {
		id, ok := byURL[u]
		if !ok {
			t.Fatalf("document %d: %s is no page of the corpus", d, u)
		}
		own := make(map[string]bool)
		for _, term := range search.Tokenize(u + " " + sim.PageText(id, fixtureText)) {
			own[term] = true
		}
		for _, to := range web.OutLinks(id) {
			for _, term := range search.Tokenize(web.Page(to).URL) {
				if own[term] {
					continue
				}
				foreign++
				if holding(term)[d] {
					t.Errorf("%s holds %q of the page it links to, %s", u, term, web.Page(to).URL)
				}
			}
		}
	}
	if foreign == 0 {
		t.Fatal("no out-linked page has a token its source lacks; the check is vacuous")
	}

	arch, err := pagestore.Open(archiveDir, pagestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	keys := archiveKeys(t, arch, "t3/")
	if len(keys) != web.NumNodes() {
		t.Fatalf("t3 holds %d pages, the corpus %d", len(keys), web.NumNodes())
	}
	ix := search.NewIndex()
	for _, k := range keys {
		_, body, err := arch.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		u := crawler.Canonical(string(body))
		id, ok := byURL[u]
		if !ok {
			t.Fatalf("%s: canonical %q is no page of the corpus", k, u)
		}
		got, want := ix.Analyze(string(body)), ix.Analyze(u+" "+u+" "+sim.PageText(id, fixtureText))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: its analysis is not its URL twice and its drawn words", u)
		}
	}
}

// TestSearchBodiesPinned pins the bytes /search answers on the fixture:
// one CRC-32 over the bodies of a fixed list of queries, each in the
// quality, pagerank and relevance modes (searchBodies).
func TestSearchBodiesPinned(t *testing.T) {
	svc, err := New(fixtureConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	const want = uint32(0xb8b2e512)
	if got := searchBodies(t, svc); got != want {
		t.Errorf("crc of /search bodies %#08x, want %#08x", got, want)
	}
}

// searchBodies is one CRC-32 over the /search bodies svc answers to a
// fixed list of queries, each in the quality, pagerank and relevance
// modes. Queries hold topic words, words every topic shares, the tokens
// of a page's own URL and terms no document holds.
func searchBodies(t testing.TB, svc *Service) uint32 {
	t.Helper()
	queries := []string{
		"astronomy", "databases cycling", "cooking page", "common3 common17 common40",
		"page000012", "site002 example", "http", "href li", "chess photography sailing common5",
	}
	crc := crc32.NewIEEE()
	for _, q := range queries {
		for _, mode := range []string{"quality", "pagerank", "relevance"} {
			rec := httptest.NewRecorder()
			svc.ServeHTTP(rec, httptest.NewRequest("GET", "/search?k=10&rank="+mode+"&q="+url.QueryEscape(q), nil))
			body, err := io.ReadAll(rec.Result().Body)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Code != 200 {
				t.Fatalf("%q %s: status %d: %s", q, mode, rec.Code, body)
			}
			crc.Write(body)
		}
	}
	return crc.Sum32()
}
