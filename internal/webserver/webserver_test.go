package webserver

import (
	"bytes"
	"context"
	"fmt"
	"html"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"pagequality/internal/graph"
	"pagequality/internal/webcorpus"
)

func fixture(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(4)
	g.MustAddPage(graph.Page{URL: "http://siteA.example/root", Site: 0})
	g.MustAddPage(graph.Page{URL: "http://siteA.example/leaf", Site: 0})
	g.MustAddPage(graph.Page{URL: "http://siteB.example/root", Site: 1})
	g.MustAddPage(graph.Page{URL: "http://siteB.example/leaf", Site: 1})
	g.AddLink(0, 1)
	g.AddLink(2, 3)
	g.AddLink(1, 2) // cross-site
	return g
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := httpGet(ts.Client(), ts.URL+path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := fixture(t)
	if _, err := New(g, []string{"only one"}); err == nil {
		t.Fatal("mismatched texts accepted")
	}
	if _, err := New(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndexAndSeeds(t *testing.T) {
	g := fixture(t)
	s, err := New(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body := get(t, ts, "/")
	if code != http.StatusOK {
		t.Fatalf("index status %d", code)
	}
	// One root per site: nodes 0 and 2.
	if !strings.Contains(body, PagePath(0)) || !strings.Contains(body, PagePath(2)) {
		t.Fatalf("index missing roots:\n%s", body)
	}
	if strings.Contains(body, PagePath(1)) {
		t.Fatalf("index lists non-root page:\n%s", body)
	}

	code, body = get(t, ts, "/seeds.txt")
	if code != http.StatusOK {
		t.Fatalf("seeds status %d", code)
	}
	lines := strings.Fields(body)
	if len(lines) != 2 || lines[0] != PagePath(0) || lines[1] != PagePath(2) {
		t.Fatalf("seeds = %v", lines)
	}
}

func TestPageRendering(t *testing.T) {
	g := fixture(t)
	s, err := New(g, []string{"alpha text", "beta text", "gamma text", "delta text"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body := get(t, ts, PagePath(0))
	if code != http.StatusOK {
		t.Fatalf("page status %d", code)
	}
	if !strings.Contains(body, `rel="canonical" href="http://siteA.example/root"`) {
		t.Fatalf("canonical missing:\n%s", body)
	}
	if !strings.Contains(body, "alpha text") {
		t.Fatalf("text missing:\n%s", body)
	}
	if !strings.Contains(body, `href="`+PagePath(1)+`"`) {
		t.Fatalf("out-link missing:\n%s", body)
	}
	if strings.Contains(body, `href="`+PagePath(3)+`"`) {
		t.Fatalf("phantom link rendered:\n%s", body)
	}
}

func TestNotFound(t *testing.T) {
	g := fixture(t)
	s, err := New(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, path := range []string{"/p/99.html", "/p/x.html", "/nope", "/p/1"} {
		if code, _ := get(t, ts, path); code != http.StatusNotFound {
			t.Fatalf("%s -> %d, want 404", path, code)
		}
	}
}

func TestParsePagePath(t *testing.T) {
	id, ok := ParsePagePath(PagePath(42))
	if !ok || id != 42 {
		t.Fatalf("round trip -> (%d,%v)", id, ok)
	}
	for _, bad := range []string{"/p/.html", "/p/-1.html", "/x/1.html", "/p/1.txt", "/p/99999999999999999999.html"} {
		if _, ok := ParsePagePath(bad); ok {
			t.Fatalf("ParsePagePath accepted %q", bad)
		}
	}
}

func TestHTMLEscaping(t *testing.T) {
	g := graph.New(1)
	g.MustAddPage(graph.Page{URL: `http://x/<script>"`, Site: 0})
	s, err := New(g, []string{`<b>&`})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	_, body := get(t, ts, PagePath(0))
	if strings.Contains(body, "<script>") {
		t.Fatalf("unescaped URL:\n%s", body)
	}
	if strings.Contains(body, "<b>&") {
		t.Fatalf("unescaped text:\n%s", body)
	}
}

// servePageFprintf is the page renderer as it was before appendPage: one
// Fprintf per fragment, straight to the writer. It is the oracle of the
// bytes a page must keep.
func servePageFprintf(w io.Writer, s *Server, id graph.NodeID) {
	pg := s.g.Page(id)
	fmt.Fprintf(w, "<!DOCTYPE html><html><head><title>%s</title>", html.EscapeString(pg.URL))
	if pg.URL != "" {
		fmt.Fprintf(w, `<link rel="canonical" href="%s">`, html.EscapeString(pg.URL))
	}
	fmt.Fprint(w, "</head><body>")
	fmt.Fprintf(w, "<h1>%s</h1>", html.EscapeString(pg.URL))
	if s.texts != nil {
		fmt.Fprintf(w, "<p>%s</p>", html.EscapeString(s.texts[id]))
	}
	fmt.Fprint(w, "<ul>")
	for _, to := range s.g.OutLinks(id) {
		toURL := s.g.Page(to).URL
		fmt.Fprintf(w, `<li><a href="%s">%s</a></li>`,
			PagePath(to), html.EscapeString(toURL))
	}
	fmt.Fprint(w, "</ul></body></html>")
}

// requireServedAsFprintf serves every page of s through the handler and
// holds each body to the oracle's bytes and its Content-Length header.
func requireServedAsFprintf(t *testing.T, s *Server) {
	t.Helper()
	for id := 0; id < s.g.NumNodes(); id++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, PagePath(graph.NodeID(id)), nil))
		var want bytes.Buffer
		servePageFprintf(&want, s, graph.NodeID(id))
		if got := rec.Body.Bytes(); rec.Code != http.StatusOK || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("page %d: status %d, body differs from the Fprintf renderer's\n got %q\nwant %q", id, rec.Code, got, want.Bytes())
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("page %d: Content-Length %q for a %d-byte body", id, cl, rec.Body.Len())
		}
	}
}

// testCorpus grows a 20-site corpus with page texts.
func testCorpus(t testing.TB) *webcorpus.Sim {
	t.Helper()
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = 20
	cfg.InitialPagesPerSite = 6
	cfg.Users = 2000
	cfg.VisitRate = 2000
	cfg.BurnInWeeks = 10
	cfg.Seed = 3
	sim, err := webcorpus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestServePageMatchesFprintf: the append renderer serves the oracle's
// bytes for every page of a corpus with texts, for URLs and texts that
// need escaping, for an empty URL and without texts; and a real client
// sees a length-framed body, not a chunked one.
func TestServePageMatchesFprintf(t *testing.T) {
	sim := testCorpus(t)
	g := sim.Graph().Clone()
	s, err := New(g, sim.AllTexts(webcorpus.TextOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	requireServedAsFprintf(t, s)

	odd := graph.New(3)
	odd.MustAddPage(graph.Page{URL: `http://x/<a href="'&'">`, Site: 0})
	odd.MustAddPage(graph.Page{URL: "", Site: 0})
	odd.MustAddPage(graph.Page{URL: "http://y/", Site: 1})
	odd.AddLink(0, 1)
	odd.AddLink(0, 2)
	odd.AddLink(1, 0)
	for _, texts := range [][]string{{`<b>"it's" & more</b>`, "", "plain"}, nil} {
		s, err := New(odd, texts)
		if err != nil {
			t.Fatal(err)
		}
		requireServedAsFprintf(t, s)
	}

	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := httpGet(ts.Client(), ts.URL+PagePath(0))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %d, Transfer-Encoding %v for a %d-byte body (err %v)",
			resp.ContentLength, resp.TransferEncoding, len(body), err)
	}
}

// BenchmarkServePage renders every page of the test corpus through the
// handler, one page per op.
func BenchmarkServePage(b *testing.B) {
	sim := testCorpus(b)
	s, err := New(sim.Graph().Clone(), sim.AllTexts(webcorpus.TextOptions{}))
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]*http.Request, s.g.NumNodes())
	for id := range reqs {
		reqs[id] = httptest.NewRequest(http.MethodGet, PagePath(graph.NodeID(id)), nil)
	}
	rec := httptest.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Body.Reset()
		s.ServeHTTP(rec, reqs[i%len(reqs)])
	}
}

// httpGet issues a GET carrying an explicit context, so test traffic
// meets the same ctxhttp cancellation discipline as the library it
// exercises.
func httpGet(c *http.Client, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return c.Do(req)
}

// TestServerHasTimeouts pins the production listener configuration: every
// timeout that protects the server from a slow client must be set.
func TestServerHasTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("server timeouts unset: %+v", srv)
	}
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Fatalf("server miswired: %+v", srv)
	}
}

// TestListenAndServeReturns pins the two ways ListenAndServe ends without
// a request in flight: a bind failure is returned at once, whatever ctx
// does later, and a cancelled ctx is a clean stop, not an error.
func TestListenAndServeReturns(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	if err := ListenAndServe(context.Background(), taken.Addr().String(), http.NotFoundHandler()); err == nil {
		t.Fatal("serving on a bound port reported no error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ListenAndServe(ctx, "127.0.0.1:0", http.NotFoundHandler()); err != nil {
		t.Fatalf("cancelled before serving: %v", err)
	}
}
