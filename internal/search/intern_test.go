package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pagequality/internal/par"
)

// webPages synthesises n pages shaped like webserver output: a title and
// heading of the page's URL, a <p> of topic and background words, and
// about 100 out-links, each an href to /p/N.html around the target's URL.
// Most of a page's tokens are link tokens, as on the served corpus.
func webPages(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	url := func(p int) string { return fmt.Sprintf("http://site%03d.example/page%06d", p%150, p) }
	pages := make([]string, n)
	var b strings.Builder
	for i := range pages {
		b.Reset()
		u := url(i)
		fmt.Fprintf(&b, `<!DOCTYPE html><html><head><title>%s</title><link rel="canonical" href="%s"></head><body><h1>%s</h1><p>`, u, u, u)
		topic := i % 150 % 20
		for w := 60 + rng.Intn(120); w > 0; w-- {
			if rng.Float64() < 0.6 {
				fmt.Fprintf(&b, "Topic%dword%d ", topic, rng.Intn(40))
			} else {
				fmt.Fprintf(&b, "common%d ", rng.Intn(400))
			}
		}
		b.WriteString("</p><ul>")
		for l := 80 + rng.Intn(40); l > 0; l-- {
			to := rng.Intn(n)
			fmt.Fprintf(&b, `<li><a href="/p/%d.html">%s</a></li>`, to, url(to))
		}
		b.WriteString("</ul></body></html>")
		pages[i] = b.String()
	}
	return pages
}

// analyzeAll analyses the pages under par.Do at the given worker count,
// so the terms are interned in that schedule's order, and adds them in
// page order.
func analyzeAll(ix *Index, pages []string, workers int) {
	docs := make([]Analyzed, len(pages))
	par.Do(len(pages), workers, func(i int) { docs[i] = ix.Analyze(pages[i]) })
	for _, a := range docs {
		ix.AddAnalyzed(a)
	}
}

// TestAnalyzedButUnaddedLeavesNoTrace: a document that is analysed and
// never added interns its terms, and a term with no posting must stay
// out of the frozen vocabulary and NumTerms — with df = 0 its idf would
// be +Inf. The index freezes exactly as one that never saw the document.
func TestAnalyzedButUnaddedLeavesNoTrace(t *testing.T) {
	pages := webPages(40, 3)
	ix, clean := NewIndex(), NewIndex()
	for i, p := range pages {
		if i == 17 {
			ix.Analyze("Onlyhere ONLYHERE " + p)
		}
		ix.Add(p)
		clean.Add(p)
	}
	requireSameFrozen(t, ix, clean)
	if _, ok := ix.frozen().termID["onlyhere"]; ok {
		t.Fatal("an unadded term is in the frozen vocabulary")
	}
	if hits, err := ix.Search("onlyhere", Options{}); err != nil || hits != nil {
		t.Fatalf("Search(onlyhere) = %v, %v; want no hits", hits, err)
	}
}

// TestAnalyzeScheduleIndependent analyses the same pages at 1, 2 and 8
// workers, so ids are interned in different orders, adds them in page
// order, and demands the same frozen slices and norm bits as a serial
// Add. Run under -race it also checks that concurrent Analyze calls
// share the intern table safely.
func TestAnalyzeScheduleIndependent(t *testing.T) {
	pages := webPages(300, 5)
	want := NewIndex()
	want.AddAll(pages)
	for _, workers := range []int{1, 2, 8} {
		ix := NewIndex()
		analyzeAll(ix, pages, workers)
		requireSameFrozen(t, ix, want)
	}
}

// TestAnalyzeConcurrentWithAdd runs eight goroutines of Analyze while
// AddAnalyzed adds the first half of the pages on the same index, then
// adds the rest from the goroutines' output in page order.
func TestAnalyzeConcurrentWithAdd(t *testing.T) {
	pages := webPages(240, 9)
	want := NewIndex()
	want.AddAll(pages)
	ix := NewIndex()
	half := len(pages) / 2
	docs := make([]Analyzed, len(pages))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := half + g; i < len(pages); i += 8 {
				docs[i] = ix.Analyze(pages[i])
			}
		}(g)
	}
	for _, p := range pages[:half] {
		ix.Add(p)
	}
	wg.Wait()
	for _, a := range docs[half:] {
		ix.AddAnalyzed(a)
	}
	requireSameFrozen(t, ix, want)
}

// TestReinternEqualsAnalyze moves documents analysed by one index into
// another, whose terms are interned in a different order, under par.Do
// beside fresh Analyze calls: each moved document equals the new index's
// Analyze of its page, and the index freezes as a serial Add of the
// pages does. Then the documents come alternately from two source
// indexes that interned their terms in different orders, so a term map
// kept across a change of source would give one source's document the
// other's ids.
func TestReinternEqualsAnalyze(t *testing.T) {
	pages := webPages(200, 11)
	want := NewIndex()
	want.AddAll(pages)
	analysed := func(first string) []Analyzed {
		src := NewIndex()
		src.Analyze(first)
		docs := make([]Analyzed, len(pages))
		par.Do(len(pages), 0, func(i int) { docs[i] = src.Analyze(pages[i]) })
		return docs
	}
	moved := analysed("Onlyold first " + pages[len(pages)-1])
	other := analysed(pages[len(pages)/2] + " zzfirst")
	for _, alternate := range []bool{false, true} {
		for _, workers := range []int{1, 2, 8} {
			ix := NewIndex()
			docs := make([]Analyzed, len(pages))
			par.Do(len(pages), workers, func(i int) {
				switch {
				case i%3 == 0:
					docs[i] = ix.Analyze(pages[i])
				case alternate && i%2 == 0:
					docs[i] = ix.Reintern(other[i])
				default:
					docs[i] = ix.Reintern(moved[i])
				}
			})
			for i, a := range docs {
				if !reflect.DeepEqual(a, ix.Analyze(pages[i])) {
					t.Fatalf("alternate=%v workers=%d: page %d re-interned differs from its analysis", alternate, workers, i)
				}
				ix.AddAnalyzed(a)
			}
			requireSameFrozen(t, ix, want)
		}
	}
}

// TestAddAnalyzedForeignPanics: ids mean nothing outside the index that
// interned them, so adding another index's document is a bug.
func TestAddAnalyzedForeignPanics(t *testing.T) {
	a := NewIndex().Analyze("alpha beta")
	defer func() {
		if recover() == nil {
			t.Fatal("AddAnalyzed of another index's document did not panic")
		}
	}()
	NewIndex().AddAnalyzed(a)
}

// BenchmarkIndexBuild times the build path on its own: 2,000 pages
// shaped like webserver output analysed under par.Do, added in order
// and frozen — the index half of a serving refresh.
func BenchmarkIndexBuild(b *testing.B) {
	pages := webPages(2000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := NewIndex()
		analyzeAll(ix, pages, 0)
		ix.Freeze()
	}
}
