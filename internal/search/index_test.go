package search

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! go1.22 foo_bar")
	// '_' is neither letter nor digit, so foo_bar splits.
	want := []string{"hello", "world", "go1", "22", "foo", "bar"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	if Tokenize("...") != nil && len(Tokenize("...")) != 0 {
		t.Fatal("punctuation-only text tokenized to something")
	}
}

// TestTermRuneMatchesTokenizer: serving refuses a query with no term
// before admission by scanning for IsTermRune instead of tokenizing. That
// is only sound while the two agree on every rune.
func TestTermRuneMatchesTokenizer(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if got, want := IsTermRune(r), len(Tokenize(string(r))) > 0; got != want {
			t.Fatalf("%U: IsTermRune %v, Tokenize finds a term: %v", r, got, want)
		}
	}
}

func corpus() *Index {
	ix := NewIndex()
	ix.AddAll([]string{
		"the quick brown fox jumps over the lazy dog",        // 0
		"a quick tour of the go programming language",        // 1
		"the go gopher is quick and curious",                 // 2
		"databases store data durably and answer queries",    // 3
		"quick quick quick repetition boosts term frequency", // 4
	})
	return ix
}

func TestIndexStats(t *testing.T) {
	ix := corpus()
	if ix.NumDocs() != 5 {
		t.Fatalf("NumDocs = %d", ix.NumDocs())
	}
	if ix.NumTerms() == 0 {
		t.Fatal("no terms")
	}
}

// TestFreezeEager: an eagerly frozen index serves the same results as a
// lazily frozen one, and Freeze installs the frozen view so the first
// search does no build work. A post-freeze Add invalidates it again.
func TestFreezeEager(t *testing.T) {
	lazy, eager := corpus(), corpus()
	eager.Freeze()
	if eager.fz.Load() == nil {
		t.Fatal("Freeze did not install a frozen view")
	}
	f := eager.fz.Load()
	for _, q := range []string{"quick fox", "lazy dog", "brown"} {
		want, err := lazy.Search(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := eager.Search(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d hits vs %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q hit %d: %+v vs %+v", q, i, got[i], want[i])
			}
		}
	}
	if eager.fz.Load() != f {
		t.Fatal("searching rebuilt the frozen view")
	}
	eager.Add("new document")
	if eager.fz.Load() != nil {
		t.Fatal("Add did not invalidate the frozen view")
	}
}

func TestVectorSearchRanksRareTermsHigher(t *testing.T) {
	ix := corpus()
	hits, err := ix.Search("go databases", Options{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Fatalf("hits = %d, want 3 (docs 1,2,3)", len(hits))
	}
	// "databases" is rarer than "go": doc 3 must rank first.
	if hits[0].Doc != 3 {
		t.Fatalf("top hit = %d, want 3", hits[0].Doc)
	}
}

func TestVectorSearchTFMatters(t *testing.T) {
	ix := corpus()
	hits, err := ix.Search("quick", Options{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 4 {
		t.Fatalf("hits = %d, want 4", len(hits))
	}
	// Doc 4 repeats "quick" three times in a short document: top cosine.
	if hits[0].Doc != 4 {
		t.Fatalf("top hit = %d, want 4", hits[0].Doc)
	}
	for _, h := range hits {
		if h.Score <= 0 || h.Relevance <= 0 {
			t.Fatalf("hit %+v has non-positive scores", h)
		}
	}
}

func TestAuthorityReranking(t *testing.T) {
	ix := corpus()
	auth := []float64{0, 0.1, 5.0, 0, 0.1} // doc 2 is far more authoritative
	pure, err := ix.Search("quick", Options{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if pure[0].Doc == 2 {
		t.Fatal("fixture broken: doc 2 already top by relevance")
	}
	ranked, err := ix.Search("quick", Options{TopK: 5, Authority: auth, AuthorityWeight: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Doc != 2 {
		t.Fatalf("authority-weighted top hit = %d, want 2", ranked[0].Doc)
	}
	// Authority must not admit documents outside the relevant set: doc 3
	// does not contain "quick".
	for _, h := range ranked {
		if h.Doc == 3 {
			t.Fatal("authority admitted an irrelevant document")
		}
	}
}

func TestAuthorityWeightOneIsPaperSemantics(t *testing.T) {
	ix := corpus()
	auth := []float64{0.9, 0.5, 0.7, 0.1, 0.3}
	hits, err := ix.Search("quick", Options{TopK: 5, Authority: auth, AuthorityWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Pure authority ordering within the relevant set {0,1,2,4}.
	wantOrder := []int{0, 2, 1, 4}
	for i, w := range wantOrder {
		if hits[i].Doc != w {
			t.Fatalf("order = %v, want %v", hits, wantOrder)
		}
	}
}

func TestTopKTruncation(t *testing.T) {
	ix := corpus()
	hits, err := ix.Search("quick", Options{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("TopK not applied: %d hits", len(hits))
	}
}

func TestSearchValidation(t *testing.T) {
	ix := corpus()
	if _, err := ix.Search("", Options{}); !errors.Is(err, ErrBadQuery) {
		t.Fatal("empty query accepted")
	}
	if _, err := ix.Search("...", Options{}); !errors.Is(err, ErrBadQuery) {
		t.Fatal("punctuation-only query accepted")
	}
	if _, err := ix.Search("x", Options{TopK: -1}); !errors.Is(err, ErrBadQuery) {
		t.Fatal("negative TopK accepted")
	}
	if _, err := ix.Search("x", Options{Authority: []float64{1}}); !errors.Is(err, ErrBadQuery) {
		t.Fatal("short authority accepted")
	}
	if _, err := ix.Search("x", Options{Authority: make([]float64, 5), AuthorityWeight: 2}); !errors.Is(err, ErrBadQuery) {
		t.Fatal("weight > 1 accepted")
	}
}

func TestUnknownTermsReturnNothing(t *testing.T) {
	ix := corpus()
	hits, err := ix.Search("zeppelin", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hits != nil {
		t.Fatalf("hits for unknown term: %v", hits)
	}
}

func TestIncrementalAddInvalidatesNorms(t *testing.T) {
	ix := NewIndex()
	ix.Add("alpha beta")
	h1, err := ix.Search("alpha", Options{})
	if err != nil || len(h1) != 1 {
		t.Fatalf("first search: %v %v", h1, err)
	}
	ix.Add("alpha alpha alpha")
	h2, err := ix.Search("alpha", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(h2) != 2 {
		t.Fatalf("after incremental add: %d hits", len(h2))
	}
}

func TestCosineScoreBounds(t *testing.T) {
	ix := corpus()
	hits, err := ix.Search("quick brown fox", Options{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.Relevance < -1e-12 || h.Relevance > 1+1e-12 {
			t.Fatalf("cosine out of [0,1]: %g", h.Relevance)
		}
	}
	// Doc 0 contains all three terms: it must be the top relevance hit.
	if hits[0].Doc != 0 {
		t.Fatalf("top hit = %d, want 0", hits[0].Doc)
	}
	if math.IsNaN(hits[0].Score) {
		t.Fatal("NaN score")
	}
}

func BenchmarkSearchVector(b *testing.B) {
	ix := NewIndex()
	for i := 0; i < 5000; i++ {
		ix.Add("alpha beta gamma delta epsilon zeta eta theta")
	}
	ix.Add("alpha needle")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search("alpha needle", Options{TopK: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: tokenization is idempotent under re-joining, lowercase, and
// free of separator characters.
func TestQuickTokenizeInvariants(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s)
		for _, tok := range toks {
			if tok == "" {
				return false
			}
			if strings.ToLower(tok) != tok {
				return false
			}
			// Re-tokenizing a token yields exactly itself.
			again := Tokenize(tok)
			if len(again) != 1 || again[0] != tok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
