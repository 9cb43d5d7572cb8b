package search

import (
	"html"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// tokenizeCounts is Tokenize, then count: Analyze's multiset for a
// document holding no '<' and no '&'.
func tokenizeCounts(text string) map[string]int32 {
	toks := Tokenize(text)
	counts := make(map[string]int32, len(toks))
	for _, t := range toks {
		counts[t]++
	}
	return counts
}

// caseless matches word in any ASCII case and no other: RE2's (?i)
// would also fold s to the long s and k to the Kelvin sign.
func caseless(word string) string {
	var b strings.Builder
	for _, c := range word {
		b.WriteString("[" + string(c) + strings.ToUpper(string(c)) + "]")
	}
	return b.String()
}

// element matches an element whose text is skipped: the open tag, then
// through the '>' of the next close tag of the name; a missing '>' or
// close tag runs to the end.
func element(name string) string {
	const rest = `(?:[^0-9A-Za-z>][^>]*)?` // after the name: a non-name byte, then up to '>'
	n := caseless(name)
	return `<` + n + rest + `(?:>(?:.*?</` + n + rest + `(?:>|$)|.*$)|$)`
}

// markup matches every piece of markup the analyser skips, written out
// independently of skipMarkup: a comment, an <a>, <script> or <style>
// element, or any other '<' through the next '>'.
var markup = regexp.MustCompile(`(?s)<!--.*?(?:-->|$)|` + element("a") + `|` +
	element("script") + `|` + element("style") + `|<[^>]*(?:>|$)`)

// visibleReference is the oracle's extractor: the runs of text between
// the pieces of markup, each entity-decoded, one space for each piece.
func visibleReference(doc string) string {
	var b strings.Builder
	last := 0
	for _, m := range markup.FindAllStringIndex(doc, -1) {
		b.WriteString(html.UnescapeString(doc[last:m[0]]))
		b.WriteByte(' ')
		last = m[1]
	}
	b.WriteString(html.UnescapeString(doc[last:]))
	return b.String()
}

// visibleCounts is the oracle Analyze is held to: Tokenize of the
// reference extractor's visible text, then count.
func visibleCounts(doc string) map[string]int32 { return tokenizeCounts(visibleReference(doc)) }

// termCounts maps a document's ids back through the vocabulary of the
// index that analysed it: the term→tf multiset, failing on a repeated
// term or an id outside the intern table.
func termCounts(t *testing.T, a Analyzed) map[string]int32 {
	t.Helper()
	if len(a.ids) != len(a.tfs) {
		t.Fatalf("%d ids, %d tfs", len(a.ids), len(a.tfs))
	}
	a.ix.mu.Lock()
	defer a.ix.mu.Unlock()
	got := make(map[string]int32, len(a.ids))
	for i, id := range a.ids {
		if int(id) >= len(a.ix.terms) {
			t.Fatalf("id %d outside a vocabulary of %d", id, len(a.ix.terms))
		}
		term := a.ix.terms[id]
		if _, dup := got[term]; dup {
			t.Fatalf("%q listed twice", term)
		}
		got[term] = a.tfs[i]
	}
	return got
}

// requireAnalyze fails unless ix.Analyze(text) has the term→tf
// multiset want and no repeated term.
func requireAnalyze(t *testing.T, ix *Index, text string, want map[string]int32) {
	t.Helper()
	if got := termCounts(t, ix.Analyze(text)); !reflect.DeepEqual(got, want) {
		t.Fatalf("Analyze(%q) counts %v, want %v", text, got, want)
	}
}

// unmarkup makes text markup-free: each '<' and '&' a space.
var unmarkup = strings.NewReplacer("<", " ", "&", " ")

// requireAnalyzeMatchesTokenize holds ix.Analyze to the oracle on text,
// and to its two properties: markup-free text gives exactly Tokenize's
// multiset, and so does text escaped as the web server escapes it.
func requireAnalyzeMatchesTokenize(t *testing.T, ix *Index, text string) {
	t.Helper()
	requireAnalyze(t, ix, text, visibleCounts(text))
	plain := unmarkup.Replace(text)
	requireAnalyze(t, ix, plain, tokenizeCounts(plain))
	requireAnalyze(t, ix, html.EscapeString(text), tokenizeCounts(text))
}

// analyzeSeeds are the inputs the analyser's paths could disagree on:
// case folding, digits glued to letters, separators at both ends,
// tokens longer than the lower-casing buffer's first capacity, the
// non-ASCII documents (invalid UTF-8, İ whose lower case is two runes,
// combining marks, a non-ASCII byte after ASCII tokens were counted),
// and markup: a page's link list, a comment holding '>', scripts and
// styles, an anchor in upper case, an unclosed '<', entities, and text
// after an anchor.
var analyzeSeeds = []string{
	"",
	"...",
	"Hello, World! go1.22 foo_bar HELLO hello",
	"<li><a href=\"/p/12.html\">http://site003.example/page000012</a></li>",
	"trailing token",
	" leading and trailing ",
	strings.Repeat("Ab0", 40) + " " + strings.Repeat("ab0", 40) + " x",
	strings.Repeat("z", 64) + "-" + strings.Repeat("Z", 65),
	"café CAFÉ cafe",
	"İstanbul istanbul I\u0307", // combining marks are escaped so they stay decomposed
	"e\u0301 é e",               // e + combining acute
	"ascii first then \xff\xfe broken \xc3",
	"K\u212a k", // Kelvin sign lower-cases to ASCII k
	"١٢ 12 Ⅰ",
	"kept<!-- hidden > still hidden -->kept too",
	"a<script>var hidden = 1 < 2;</script>b<STYLE type=x>p { hidden: 0 }</Style >c",
	"<A HREF=\"/p/3.html\">HIDDEN</A>shown",
	"<title>Kept Title</title><h1>Head</h1>",
	"before <unclosed hidden text",
	"fish &amp; chips, it&#39;s caf&eacute; &#9 &ampere; &bogus;",
	"<a href=/x>hidden</a> after the anchor <a>hidden</abbr> still hidden</a > shown",
	"<!DOCTYPE html><p>x</p><a>never closed",
}

// TestAnalyzeMatchesTokenize holds Analyze to Tokenize of the reference
// extractor's visible text over the seeds, each on a fresh index and
// again on one index that has interned every seed before it, so cached
// and newly interned terms are both checked.
func TestAnalyzeMatchesTokenize(t *testing.T) {
	shared := NewIndex()
	for _, s := range analyzeSeeds {
		requireAnalyzeMatchesTokenize(t, NewIndex(), s)
		requireAnalyzeMatchesTokenize(t, shared, s)
	}
	requireAnalyzeMatchesTokenize(t, shared, "b A b c a B")
	requireAnalyze(t, shared, "<p>Shown</p><a href=\"/p/1.html\">http://hidden.example/</a> &lt;b&gt; caf&eacute;",
		map[string]int32{"shown": 1, "b": 1, "café": 1})
}

// TestLexiconMatchesAnalyze: a document given as a markup-free title
// and slots of a lexicon of markup-free words (no '<', no '&') is counted
// as Analyze counts the title and the slots' words joined by spaces: the
// same ids in the same order, so the same term→tf multiset. Every
// markup-free seed serves as a word (words of several tokens, of none,
// and of non-ASCII text) and as a title, on a fresh index and on one
// that holds every seed already.
func TestLexiconMatchesAnalyze(t *testing.T) {
	var plain []string
	for _, s := range analyzeSeeds {
		if !strings.ContainsAny(s, "<&") {
			plain = append(plain, s)
		}
	}
	warm := NewIndex()
	warm.AddAll(analyzeSeeds)
	for _, ix := range []*Index{NewIndex(), warm} {
		lx := ix.Lexicon(plain)
		for i, title := range plain {
			var slots []int
			words := []string{title}
			for j := 0; j < 3*len(plain); j++ {
				w := (i*j + j/2) % len(plain)
				slots = append(slots, w)
				words = append(words, plain[w])
			}
			got, want := lx.Analyze(title, slots), ix.Analyze(strings.Join(words, " "))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("title %q slots %v: lexicon %v, Analyze %v", title, slots, termCounts(t, got), termCounts(t, want))
			}
		}
	}
	if got := NewIndex().Lexicon(nil).Analyze("Title 1.", nil); !reflect.DeepEqual(termCounts(t, got), tokenizeCounts("Title 1.")) {
		t.Fatalf("title alone: %v", termCounts(t, got))
	}
}

// FuzzAnalyze: for arbitrary bytes, the analyser agrees with Tokenize of
// the reference extractor's visible text, and with Tokenize itself on
// the bytes made markup-free and on the bytes escaped, on a fresh index
// and on one shared by every input. The committed corpus under testdata/fuzz/FuzzAnalyze runs on
// every plain `go test`; it holds the crawler's hidden-link bodies too (a
// comment holding '>', a script and a style holding tags, numeric
// entities in attributes).
func FuzzAnalyze(f *testing.F) {
	for _, s := range analyzeSeeds {
		f.Add(s)
	}
	shared := NewIndex()
	f.Fuzz(func(t *testing.T, s string) {
		requireAnalyzeMatchesTokenize(t, NewIndex(), s)
		requireAnalyzeMatchesTokenize(t, shared, s)
	})
}

// addByTokenize is the historical Add, kept as the oracle of the build
// path: the reference extractor's visible text through Tokenize, counted
// into a map, interned, and one posting appended per counted term in map
// order.
//
//pqlint:allow detrange map order is the historical build this oracle keeps; freeze must not depend on it
func addByTokenize(ix *Index, text string) {
	a, an := Analyzed{ix: ix}, &analyzer{cache: make(map[string]int32)}
	for t, c := range visibleCounts(text) {
		a.ids = append(a.ids, an.intern(ix, []byte(t)))
		a.tfs = append(a.tfs, c)
	}
	ix.AddAnalyzed(a)
}

// TestAddMatchesHistoricalBuild: the index Add builds through
// Analyze/AddAnalyzed freezes to the layout the historical map-order
// build freezes to — same postings, same Float64bits of every norm.
func TestAddMatchesHistoricalBuild(t *testing.T) {
	docs := append(synthDocs(40), analyzeSeeds...)
	ix, old := NewIndex(), NewIndex()
	for i, d := range docs {
		ix.Add(d)
		if ix.NumDocs() != i+1 {
			t.Fatalf("doc %d: %d documents indexed", i, ix.NumDocs())
		}
		addByTokenize(old, d)
	}
	requireSameFrozen(t, ix, old)
}

// requireSameFrozen fails unless the two indexes agree on their
// statistics and freeze to the same posting layout and vocabulary, with
// the same Float64bits of every idf and norm.
func requireSameFrozen(t *testing.T, a, b *Index) {
	t.Helper()
	if a.NumDocs() != b.NumDocs() || a.NumTerms() != b.NumTerms() {
		t.Fatalf("stats differ: %d/%d docs, %d/%d terms", a.NumDocs(), b.NumDocs(), a.NumTerms(), b.NumTerms())
	}
	fa, fb := a.frozen(), b.frozen()
	if !reflect.DeepEqual(fa.start, fb.start) || !reflect.DeepEqual(fa.docs, fb.docs) ||
		!reflect.DeepEqual(fa.tfs, fb.tfs) || !reflect.DeepEqual(fa.termID, fb.termID) {
		t.Fatal("frozen posting layout differs")
	}
	if len(fa.termID) != a.NumTerms() {
		t.Fatalf("%d frozen terms, NumTerms %d", len(fa.termID), a.NumTerms())
	}
	for i := range fa.idf {
		if math.Float64bits(fa.idf[i]) != math.Float64bits(fb.idf[i]) {
			t.Fatalf("term %d: idf %v/%v", i, fa.idf[i], fb.idf[i])
		}
	}
	for d := range fa.norm {
		if math.Float64bits(fa.norm[d]) != math.Float64bits(fb.norm[d]) {
			t.Fatalf("doc %d: norm %v/%v", d, fa.norm[d], fb.norm[d])
		}
	}
}
