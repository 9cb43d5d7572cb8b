package webserver

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pagequality/internal/graph"
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
