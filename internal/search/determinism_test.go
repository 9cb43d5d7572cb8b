package search

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// synthDocs builds a corpus with enough vocabulary overlap that float
// accumulation order is exercised hard: every doc shares terms with many
// others, so norms and scores are sums of many differently-sized terms.
func synthDocs(n int) []string {
	docs := make([]string, n)
	for i := 0; i < n; i++ {
		s := ""
		for j := 0; j <= i%17; j++ {
			s += fmt.Sprintf("term%d ", (i*7+j*13)%41)
		}
		docs[i] = s + fmt.Sprintf("unique%d shared common everywhere", i)
	}
	return docs
}

func buildIndex(docs []string) *Index {
	ix := NewIndex()
	ix.AddAll(docs)
	return ix
}

// TestScoringDeterministic runs the scoring kernel twice — within one
// frozen view (two kernel invocations) and across two independently
// built and frozen indexes — and demands bitwise-identical floats. This
// is the regression test for order leaks: the freeze lays the interned
// vocabulary out in sorted order, so norms, idf tables and scores must
// never vary run to run.
func TestScoringDeterministic(t *testing.T) {
	docs := synthDocs(120)
	query := "term1 term2 term3 term5 term8 term13 term21 term34 shared common everywhere unique3"
	terms := Tokenize(query)
	slices.Sort(terms) // vectorKernel's precondition, as Options.prepare establishes it

	a := buildIndex(docs)
	b := buildIndex(docs)
	fa, fb := a.frozen(), b.frozen()
	for i := range fa.norm {
		if math.Float64bits(fa.norm[i]) != math.Float64bits(fb.norm[i]) {
			t.Fatalf("norm[%d] differs across identical builds: %x vs %x",
				i, fa.norm[i], fb.norm[i])
		}
	}
	for i := range fa.idf {
		if math.Float64bits(fa.idf[i]) != math.Float64bits(fb.idf[i]) {
			t.Fatalf("idf[%d] differs across identical builds", i)
		}
	}

	score := func(f *frozen) map[int32]float64 {
		sc := f.getScratch()
		defer f.release(sc)
		out := make(map[int32]float64)
		docs, _ := f.vectorKernel(terms, sc)
		for _, d := range docs {
			out[d] = sc.score[d]
		}
		return out
	}
	first := score(fa)
	if len(first) == 0 {
		t.Fatal("query matched nothing; corpus broken")
	}
	for run := 0; run < 5; run++ {
		for name, f := range map[string]*frozen{"same index": fa, "rebuilt index": fb} {
			got := score(f)
			if len(got) != len(first) {
				t.Fatalf("%s run %d: %d docs scored, want %d", name, run, len(got), len(first))
			}
			for d, s := range first {
				if math.Float64bits(got[d]) != math.Float64bits(s) {
					t.Fatalf("%s run %d: doc %d score %x, want bitwise %x", name, run, d, got[d], s)
				}
			}
		}
	}
}

// TestSearchDeterministic covers the public entry point end to end: the
// full hit list (docs, scores, relevance) must be identical across
// repeated calls and across rebuilt indexes.
func TestSearchDeterministic(t *testing.T) {
	docs := synthDocs(80)
	auth := make([]float64, len(docs))
	for i := range auth {
		auth[i] = 1 / float64(i+1)
	}
	opts := Options{TopK: 25, Authority: auth}

	a := buildIndex(docs)
	b := buildIndex(docs)
	first, err := a.Search("shared common term3 term8", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("query matched nothing")
	}
	for run := 0; run < 5; run++ {
		for name, ix := range map[string]*Index{"same index": a, "rebuilt index": b} {
			got, err := ix.Search("shared common term3 term8", opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(first) {
				t.Fatalf("%s run %d: %d hits, want %d", name, run, len(got), len(first))
			}
			for i := range got {
				if got[i].Doc != first[i].Doc ||
					math.Float64bits(got[i].Score) != math.Float64bits(first[i].Score) ||
					math.Float64bits(got[i].Relevance) != math.Float64bits(first[i].Relevance) {
					t.Fatalf("%s run %d: hit %d = %+v, want %+v", name, run, i, got[i], first[i])
				}
			}
		}
	}
}
