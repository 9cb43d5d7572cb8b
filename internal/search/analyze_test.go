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

// requireAnalyzeMatchesTokenize fails unless Analyze(text) has
// Tokenize's term→tf multiset and no repeated term.
func requireAnalyzeMatchesTokenize(t *testing.T, text string) {
	t.Helper()
	a := Analyze(text)
	want := tokenizeCounts(text)
	if len(a.Terms) != len(a.TFs) {
		t.Fatalf("Analyze(%q): %d terms, %d tfs", text, len(a.Terms), len(a.TFs))
	}
	got := make(map[string]int32, len(a.Terms))
	for i, term := range a.Terms {
		if _, dup := got[term]; dup {
			t.Fatalf("Analyze(%q) lists %q twice", text, term)
		}
		got[term] = a.TFs[i]
	}
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

// TestAnalyzeMatchesTokenize runs the oracle over the seeds and pins the
// first-occurrence order AddAnalyzed's callers may rely on.
func TestAnalyzeMatchesTokenize(t *testing.T) {
	for _, s := range analyzeSeeds {
		requireAnalyzeMatchesTokenize(t, s)
	}
	a := Analyze("b A b c a B")
	if want := (Analyzed{Terms: []string{"b", "a", "c"}, TFs: []int32{3, 2, 1}}); !reflect.DeepEqual(a, want) {
		t.Fatalf("Analyze = %+v, want %+v", a, want)
	}
}

// FuzzAnalyze: for arbitrary bytes, the single-pass analyser and the
// reference tokenizer agree. The committed corpus under
// testdata/fuzz/FuzzAnalyze runs on every plain `go test`.
func FuzzAnalyze(f *testing.F) {
	for _, s := range analyzeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		requireAnalyzeMatchesTokenize(t, s)
	})
}

// addByTokenize is the historical Add, kept as the oracle of the build
// path: Tokenize, count into a map, append one posting per counted term
// in map order.
func addByTokenize(ix *Index, text string) {
	for t, c := range tokenizeCounts(text) {
		ix.postings[t] = append(ix.postings[t], posting{doc: int32(ix.numDocs), tf: c})
	}
	ix.numDocs++
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
	if ix.NumDocs() != old.NumDocs() || ix.NumTerms() != old.NumTerms() {
		t.Fatalf("stats differ: %d/%d docs, %d/%d terms", ix.NumDocs(), old.NumDocs(), ix.NumTerms(), old.NumTerms())
	}
	fa, fb := ix.frozen(), old.frozen()
	if !reflect.DeepEqual(fa.start, fb.start) || !reflect.DeepEqual(fa.docs, fb.docs) ||
		!reflect.DeepEqual(fa.tfs, fb.tfs) || !reflect.DeepEqual(fa.termID, fb.termID) {
		t.Fatal("frozen posting layout differs")
	}
	for d := range fa.norm {
		if math.Float64bits(fa.norm[d]) != math.Float64bits(fb.norm[d]) {
			t.Fatalf("doc %d: norm %v/%v", d, fa.norm[d], fb.norm[d])
		}
	}
}
