package crawler

import (
	"fmt"
	"html"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"pagequality/internal/graph"
	"pagequality/internal/randx"
	"pagequality/internal/search"
	"pagequality/internal/webcorpus"
	"pagequality/internal/webserver"
)

func TestExtractLinksBasic(t *testing.T) {
	body := `<html><head><link rel="canonical" href="http://a.example/x"></head>
	<body><a href="/p/1.html">one</a> text <A HREF="/p/2.html">two</A></body></html>`
	hrefs, canon := ExtractLinks(body)
	if canon != "http://a.example/x" {
		t.Fatalf("canonical = %q", canon)
	}
	want := []string{"/p/1.html", "/p/2.html"}
	if !reflect.DeepEqual(hrefs, want) {
		t.Fatalf("hrefs = %v, want %v", hrefs, want)
	}
}

func TestExtractLinksQuoteStyles(t *testing.T) {
	body := `<a href="/dq">a</a><a href='/sq'>b</a><a href=/uq>c</a>`
	hrefs, _ := ExtractLinks(body)
	want := []string{"/dq", "/sq", "/uq"}
	if !reflect.DeepEqual(hrefs, want) {
		t.Fatalf("hrefs = %v, want %v", hrefs, want)
	}
}

func TestExtractLinksAttributeOrderAndNoise(t *testing.T) {
	body := `<a class="x" target=_blank href="/late">x</a>
	<a nohref>skip</a>
	<a href="">skip-empty</a>
	<!-- a comment holding '>' hides <a href="/commented">no</a> too -->
	<a href="/q?x=1&amp;y=2">entity</a>`
	hrefs, _ := ExtractLinks(body)
	if hrefs[0] != "/late" {
		t.Fatalf("hrefs[0] = %q", hrefs[0])
	}
	if slices.Contains(hrefs, "/commented") {
		t.Fatalf("a link inside a comment was extracted: %v", hrefs)
	}
	// entity-unescaped query
	found := false
	for _, h := range hrefs {
		if h == "/q?x=1&y=2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("entity href missing: %v", hrefs)
	}
}

func TestExtractLinksClosingAndSelfClosing(t *testing.T) {
	body := `</a><br/><a href="/ok"/>done`
	hrefs, _ := ExtractLinks(body)
	if len(hrefs) != 1 || hrefs[0] != "/ok" {
		t.Fatalf("hrefs = %v", hrefs)
	}
}

func TestExtractCanonicalCaseAndFirstWins(t *testing.T) {
	body := `<LINK REL="Canonical" HREF="http://first/">
	<link rel="canonical" href="http://second/">`
	_, canon := ExtractLinks(body)
	if canon != "http://first/" {
		t.Fatalf("canonical = %q", canon)
	}
}

// malformedTags are truncated tags.
var malformedTags = []string{"<", "<a", "<a href=", `<a href="`, "<a href='x", "< >", "<>", "<a href"}

func TestExtractLinksMalformed(t *testing.T) {
	// Truncated tags must not panic or loop.
	for _, body := range malformedTags {
		ExtractLinks(body)
	}
}

func TestExtractLinksIgnoresNonAnchorHref(t *testing.T) {
	body := `<img href="/not-a-link"><area href="/also-not"><a href="/yes">y</a>`
	hrefs, _ := ExtractLinks(body)
	if len(hrefs) != 1 || hrefs[0] != "/yes" {
		t.Fatalf("hrefs = %v", hrefs)
	}
}

// hiddenLinkBodies are pages whose markup hides a link or decodes one:
// a comment holding '>', a script and a style holding tags, and hrefs
// written with numeric entities, as html.EscapeString writes '"' and as
// '&' may be written. ExtractLinks reads them as the index does. They
// are also seeds of FuzzParsePage and of search's FuzzAnalyze.
var hiddenLinkBodies = []struct {
	body      string
	hrefs     []string
	canonical string
}{
	{`<!-- old nav > <a href="/p/9.html">x</a> --><a href="/p/1.html">y</a>`, []string{"/p/1.html"}, ""},
	{`<script>var s = '<a href="/p/8.html">';</script><a href="/p/2.html">y</a>`, []string{"/p/2.html"}, ""},
	{`<style>/* <link rel="canonical" href="http://evil/"> */</style><link rel="canonical" href="http://good/">`, nil, "http://good/"},
	{`<link rel="canonical" href="http://a.example/say &#34;hi&#34;">`, nil, `http://a.example/say "hi"`},
	{`<a href="/p/3.html?a=1&#38;b=2">z</a>`, []string{"/p/3.html?a=1&b=2"}, ""},
}

func TestExtractLinksReadsTagsAsTheIndexDoes(t *testing.T) {
	for _, c := range hiddenLinkBodies {
		hrefs, canonical := ExtractLinks(c.body)
		if !reflect.DeepEqual(hrefs, c.hrefs) || canonical != c.canonical || Canonical(c.body) != c.canonical {
			t.Errorf("ExtractLinks(%q) = %q, %q; want %q, %q", c.body, hrefs, canonical, c.hrefs, c.canonical)
		}
	}
}

// TestCanonicalRoundTrip: a page the webserver renders, whose URL holds
// every byte html.EscapeString escapes and non-ASCII letters, crawls to
// a node named by the graph's URL itself.
func TestCanonicalRoundTrip(t *testing.T) {
	for _, u := range []string{
		`http://a.example/say "hi"`,
		`http://a.example/q?a=1&b=2`,
		`http://a.example/it's`,
		`http://a.example/a<b>c`,
		`http://bücher.example/straße`,
		`http://a.example/"&'<>é`,
	} {
		g := graph.New(0)
		g.MustAddPage(graph.Page{URL: u})
		srv, err := webserver.New(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		res, err := Crawl(Config{Seeds: []string{ts.URL + webserver.PagePath(0)}, Client: ts.Client()})
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Graph.NumNodes() != 1 || res.Graph.Page(0).URL != u {
			t.Errorf("%q crawled to %d nodes, the first %q", u, res.Graph.NumNodes(), res.Graph.Page(0).URL)
		}
	}
}

// canonicalFrags are the tag shapes where a scanner could drift: a link
// inside a comment, a longer tag name, an empty or missing href, a
// non-canonical rel first, upper case, entities, unterminated tags,
// duplicate attributes (the last wins, a valueless one reads as "").
var canonicalFrags = []string{
	`<link rel="canonical" href="http://a.example/x">`,
	`<LINK REL="CANONICAL" HREF="http://upper/">`,
	`<link rel=canonical href=/unquoted>`,
	`<link href='/href-first' rel='canonical'>`,
	`<link rel="canonical" href="">`,
	`<link rel="canonical">`,
	`<link rel="stylesheet" href="/s.css">`,
	`<links rel="canonical" href="/not-a-link-tag">`,
	`<link rel="canonical" href="/q?a=1&amp;b=2">`,
	`<!-- <link rel="canonical" href="/in-comment"> -->`,
	`<!-- > <link rel="canonical" href="/after-comment-gt">`,
	`</link rel="canonical" href="/closing">`,
	`<a href="/p/1.html" rel="canonical">anchor</a>`,
	`<li><a href="/p/2.html">x</a></li>`,
	`<link rel="canonical" href="/unterminated"`,
	`<link rel="canonical" href="/quote>inside">`,
	`<`, `>`, `<>`, `< link rel=canonical href=/space>`, "text\n", `<link/rel=canonical href=/slash>`,
	`<a href="/first" HREF='/last'>dup</a>`, `<a href=/set href>valueless-last</a>`,
	`<link rel=canonical href=/dup-rel rel=stylesheet>`, `<a href = "/spaced" href=>`,
}

// TestCanonicalMatchesExtractLinks: Canonical is ExtractLinks' second
// result, and ExtractLinks the map-based reference's, on canonicalFrags
// and on random splices of them.
func TestCanonicalMatchesExtractLinks(t *testing.T) {
	check := func(body string) {
		t.Helper()
		hrefs, want := ExtractLinks(body)
		if got := Canonical(body); got != want {
			t.Fatalf("Canonical(%q) = %q, ExtractLinks says %q", body, got, want)
		}
		if refHrefs, refCanonical := extractLinksReference(body); !reflect.DeepEqual(hrefs, refHrefs) || want != refCanonical {
			t.Fatalf("ExtractLinks(%q) = %q, %q; reference %q, %q", body, hrefs, want, refHrefs, refCanonical)
		}
	}
	check("")
	for _, f := range canonicalFrags {
		check(f)
		check("<html><head>" + f + "</head><body>" + canonicalFrags[0] + "</body></html>")
	}
	rng := randx.NewStream(7, randx.Key("canonical"), 0)
	for i := 0; i < 2000; i++ {
		var b strings.Builder
		for n := 1 + randx.Intn(&rng, 6); n > 0; n-- {
			b.WriteString(canonicalFrags[randx.Intn(&rng, len(canonicalFrags))])
		}
		check(b.String())
	}
}

// TestCanonicalDoesNotPinBody: the canonical URL Canonical and
// ExtractLinks return is a copy, not a window into the body, so a graph
// node or a served URL does not keep its page's whole body alive.
func TestCanonicalDoesNotPinBody(t *testing.T) {
	found := 0
	for _, f := range canonicalFrags {
		body := "<html><head>" + f + "</head><body>" + strings.Repeat("text ", 20) + "</body></html>"
		_, extracted := ExtractLinks(body)
		for _, c := range []string{Canonical(body), extracted} {
			if c == "" {
				continue
			}
			found++
			start := uintptr(unsafe.Pointer(unsafe.StringData(body)))
			if p := uintptr(unsafe.Pointer(unsafe.StringData(c))); p >= start && p < start+uintptr(len(body)) {
				t.Errorf("canonical %q of %q points into the body", c, f)
			}
		}
	}
	if found == 0 {
		t.Fatal("no fragment has a canonical URL")
	}
}

// parseAttrs is the attribute scanner as it was before attrValue: every
// ` key="value" key2='v' key3=v key4 ` fragment into a map, keys lower
// case, the last duplicate winning. It is attrValue's oracle.
func parseAttrs(s string) map[string]string {
	attrs := make(map[string]string, 4)
	i := 0
	for i < len(s) {
		// skip whitespace and stray slashes
		for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r' || s[i] == '/') {
			i++
		}
		if i >= len(s) {
			break
		}
		// key
		ks := i
		for i < len(s) && s[i] != '=' && s[i] != ' ' && s[i] != '\t' && s[i] != '\n' && s[i] != '\r' {
			i++
		}
		key := strings.ToLower(s[ks:i])
		if key == "" {
			i++
			continue
		}
		// skip whitespace before '='
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i >= len(s) || s[i] != '=' {
			attrs[key] = "" // valueless attribute
			continue
		}
		i++ // past '='
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i >= len(s) {
			attrs[key] = ""
			break
		}
		var val string
		switch s[i] {
		case '"', '\'':
			q := s[i]
			i++
			vs := i
			for i < len(s) && s[i] != q {
				i++
			}
			val = s[vs:i]
			if i < len(s) {
				i++ // past closing quote
			}
		default:
			vs := i
			for i < len(s) && s[i] != ' ' && s[i] != '\t' && s[i] != '\n' && s[i] != '\r' {
				i++
			}
			val = s[vs:i]
		}
		attrs[key] = html.UnescapeString(val)
	}
	return attrs
}

// extractLinksReference is ExtractLinks over parseAttrs maps, cutting
// tags at every '<' by the shared search.ReadTag.
func extractLinksReference(body string) (hrefs []string, canonical string) {
	for i := 0; i < len(body); {
		if body[i] != '<' {
			i++
			continue
		}
		var name, attrs string
		name, attrs, i = search.ReadTag(body, i)
		switch {
		case strings.EqualFold(name, "a"):
			if href := parseAttrs(attrs)["href"]; href != "" {
				hrefs = append(hrefs, href)
			}
		case canonical == "" && strings.EqualFold(name, "link"):
			if a := parseAttrs(attrs); strings.EqualFold(a["rel"], "canonical") {
				canonical = a["href"]
			}
		}
	}
	return hrefs, canonical
}

// normalizeURL is the link resolution as it was before resolveURL: the
// resolved URL as a string, which hostOf then parses a second time.
func normalizeURL(ref string, base *url.URL) (string, error) {
	u, err := url.Parse(strings.TrimSpace(ref))
	if err != nil {
		return "", err
	}
	if base != nil {
		u = base.ResolveReference(u)
	}
	if !u.IsAbs() {
		return "", fmt.Errorf("crawler: relative URL %q without base", ref)
	}
	u.Fragment = ""
	return u.String(), nil
}

// parsePageReference is parsePageAt as it was before the single parse:
// map-based attributes, normalizeURL, then the same-host test on
// hostOf's re-parse of the normalized string.
func parsePageReference(fetchURL string, base *url.URL, body []byte) page {
	hrefs, canonical := extractLinksReference(string(body))
	pg := page{fetchURL: fetchURL, canonical: canonical}
	if pg.canonical == "" {
		pg.canonical = fetchURL
	}
	baseHost := base.Scheme + "://" + base.Host
	for _, h := range hrefs {
		n, err := normalizeURL(h, base)
		if err != nil || hostOf(n) != baseHost {
			continue
		}
		pg.links = append(pg.links, n)
	}
	return pg
}

// FuzzParsePage: for an arbitrary body and base URL, link extraction
// without attribute maps, the rooted-href fast path (origin plus href, no
// net/url) and the single parse of every other link give the reference's
// hrefs, canonical URL and same-host links. Seeds are canonicalFrags, the
// malformed tags, and (testdata/fuzz/FuzzParsePage) hosts that are hard to
// compare: upper-case scheme, userinfo, ports, IPv6 zones, scheme-relative
// and %-escaped hosts; and the fast path's boundary: rooted hrefs with dot
// or empty segments, escapes, queries, fragments, non-ASCII bytes or
// spaces, on bases without a scheme or host, or with userinfo; and the
// hiddenLinkBodies.
func FuzzParsePage(f *testing.F) {
	for _, body := range slices.Concat(canonicalFrags, malformedTags) {
		f.Add(body, "http://a.example/x/")
	}
	f.Fuzz(func(t *testing.T, body, rawBase string) {
		base, err := url.Parse(rawBase)
		if err != nil {
			return
		}
		hrefs, canonical := ExtractLinks(body)
		wantHrefs, wantCanonical := extractLinksReference(body)
		if !reflect.DeepEqual(hrefs, wantHrefs) || canonical != wantCanonical || Canonical(body) != wantCanonical {
			t.Fatalf("ExtractLinks(%q) = %q, %q; reference %q, %q", body, hrefs, canonical, wantHrefs, wantCanonical)
		}
		got, err := parsePageAt(rawBase, base, []byte(body))
		if want := parsePageReference(rawBase, base, []byte(body)); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("base %q, body %q:\n got %+v\nwant %+v (err %v)", rawBase, body, got, want, err)
		}
	})
}

// BenchmarkParsePage extracts the canonical URL and same-host links of
// served pages, one page per op.
func BenchmarkParsePage(b *testing.B) {
	sim := testCorpus(b, 1)
	srv, err := webserver.New(sim.Graph().Clone(), sim.AllTexts(webcorpus.TextOptions{}))
	if err != nil {
		b.Fatal(err)
	}
	var bodies [][]byte
	for id := 0; id < sim.NumPages(); id++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, webserver.PagePath(graph.NodeID(id)), nil))
		bodies = append(bodies, rec.Body.Bytes())
	}
	const fetchURL = "http://127.0.0.1:8080/p/0.html"
	base, err := url.Parse(fetchURL)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parsePageAt(fetchURL, base, bodies[i%len(bodies)]); err != nil {
			b.Fatal(err)
		}
	}
}
