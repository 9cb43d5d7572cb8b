package crawler

import (
	"reflect"
	"strings"
	"testing"

	"pagequality/internal/randx"
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
	<!-- <a href="/commented">no</a> is inside a comment's text, but the
	  scanner sees tags, so it may appear; real crawlers fetch it too -->
	<a href="/q?x=1&amp;y=2">entity</a>`
	hrefs, _ := ExtractLinks(body)
	if hrefs[0] != "/late" {
		t.Fatalf("hrefs[0] = %q", hrefs[0])
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

func TestExtractLinksMalformed(t *testing.T) {
	// Truncated tags must not panic or loop.
	for _, body := range []string{
		"<", "<a", "<a href=", `<a href="`, "<a href='x", "< >", "<>", "<a href",
	} {
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

// TestCanonicalMatchesExtractLinks: Canonical is ExtractLinks' second
// result, on the shapes where an early-exit scanner could drift — a
// link inside a comment, a longer tag name, an empty or missing href, a
// non-canonical rel first, upper case, entities, unterminated tags —
// and on random splices of those fragments.
func TestCanonicalMatchesExtractLinks(t *testing.T) {
	frags := []string{
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
	}
	check := func(body string) {
		t.Helper()
		_, want := ExtractLinks(body)
		if got := Canonical(body); got != want {
			t.Fatalf("Canonical(%q) = %q, ExtractLinks says %q", body, got, want)
		}
	}
	check("")
	for _, f := range frags {
		check(f)
		check("<html><head>" + f + "</head><body>" + frags[0] + "</body></html>")
	}
	rng := randx.NewStream(7, randx.Key("canonical"), 0)
	for i := 0; i < 2000; i++ {
		var b strings.Builder
		for n := 1 + randx.Intn(&rng, 6); n > 0; n-- {
			b.WriteString(frags[randx.Intn(&rng, len(frags))])
		}
		check(b.String())
	}
}
