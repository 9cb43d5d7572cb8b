package search

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// tokenizeCounts is the oracle Analyze is held to: Tokenize, then count.
func tokenizeCounts(text string) map[string]int32 {
	toks := Tokenize(text)
	counts := make(map[string]int32, len(toks))
	for _, t := range toks {
		counts[t]++
	}
	return counts
}

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

// requireAnalyzeMatchesTokenize fails unless ix.Analyze(text) has
// Tokenize's term→tf multiset and no repeated term.
func requireAnalyzeMatchesTokenize(t *testing.T, ix *Index, text string) {
	t.Helper()
	got, want := termCounts(t, ix.Analyze(text)), tokenizeCounts(text)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Analyze(%q) counts %v, Tokenize counts %v", text, got, want)
	}
}

// analyzeSeeds are the inputs the two tokenizer paths could disagree
// on: case folding, digits glued to letters, separators at both ends,
// tokens longer than the lower-casing buffer's first capacity, and the
// non-ASCII documents (invalid UTF-8, İ whose lower case is two runes,
// combining marks, a non-ASCII byte after ASCII tokens were counted).
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
	"İstanbul istanbul İ",
	"é é e",
	"ascii first then \xff\xfe broken \xc3",
	"K\u212a k", // Kelvin sign lower-cases to ASCII k
	"١٢ 12 Ⅰ",
}

// TestAnalyzeMatchesTokenize runs the oracle over the seeds, each on a
// fresh index and again on one index that has interned every seed
// before it, so cached and newly interned terms are both checked.
func TestAnalyzeMatchesTokenize(t *testing.T) {
	shared := NewIndex()
	for _, s := range analyzeSeeds {
		requireAnalyzeMatchesTokenize(t, NewIndex(), s)
		requireAnalyzeMatchesTokenize(t, shared, s)
	}
	requireAnalyzeMatchesTokenize(t, shared, "b A b c a B")
}

// TestLexiconMatchesAnalyze: a document given as a title and slots of a
// lexicon is counted as Analyze counts the title and the slots' words
// joined by spaces: the same ids in the same order, so the same term→tf
// multiset. Every seed serves as a word (words of several tokens, of
// none, and of non-ASCII text) and as a title, on a fresh index and on
// one that holds every seed already.
func TestLexiconMatchesAnalyze(t *testing.T) {
	warm := NewIndex()
	warm.AddAll(analyzeSeeds)
	for _, ix := range []*Index{NewIndex(), warm} {
		lx := ix.Lexicon(analyzeSeeds)
		for i, title := range analyzeSeeds {
			var slots []int
			words := []string{title}
			for j := 0; j < 3*len(analyzeSeeds); j++ {
				w := (i*j + j/2) % len(analyzeSeeds)
				slots = append(slots, w)
				words = append(words, analyzeSeeds[w])
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

// FuzzAnalyze: for arbitrary bytes, the single-pass analyser and the
// reference tokenizer agree, on a fresh index and on one shared by every
// input. The committed corpus under testdata/fuzz/FuzzAnalyze runs on
// every plain `go test`.
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
// path: Tokenize, count into a map, intern and append one posting per
// counted term in map order.
//
//pqlint:allow detrange map order is the historical build this oracle keeps; freeze must not depend on it
func addByTokenize(ix *Index, text string) {
	a, an := Analyzed{ix: ix}, &analyzer{cache: make(map[string]int32)}
	for t, c := range tokenizeCounts(text) {
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
		if id := ix.Add(d); id != i {
			t.Fatalf("doc %d got id %d", i, id)
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
