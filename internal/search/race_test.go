package search

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// TestConcurrentSearch hammers one index from many goroutines — including
// the very first queries, which race to build the frozen view — and
// checks every result against the serially computed answer, bit for bit.
// Run under -race this pins the concurrency contract the serving path
// relies on: a frozen index, and one authority order shared by every
// goroutine, are safe for unlimited concurrent Search.
func TestConcurrentSearch(t *testing.T) {
	docs := synthDocs(150)
	ix := buildIndex(docs)
	auth := make([]float64, len(docs))
	for i := range auth {
		auth[i] = 1 / float64(i%13+1)
	}
	order := orderOf(auth)
	type q struct {
		query string
		opts  Options
	}
	queries := []q{
		{"shared common term3 term8", Options{TopK: 20}},
		{"term1 term5 term8", Options{TopK: 10, Authority: auth}},
		{"shared everywhere", Options{TopK: 30}},
		{"term2 unique7 zzz", Options{TopK: 15}},
		{"unique3", Options{TopK: 5, Authority: auth, AuthorityWeight: 1}},
		{"shared common term3 term8", Options{TopK: 20, Authority: auth, AuthorityWeight: 0.7, Order: order}},
		{"everywhere term2", Options{TopK: 5, Authority: auth, AuthorityWeight: 1, Order: order}},
	}
	// Serial ground truth from an identical, separately frozen index, so
	// the index under test is first touched concurrently.
	ref := buildIndex(docs)
	want := make([][]Hit, len(queries))
	for i, qu := range queries {
		hits, err := ref.Search(qu.query, qu.opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = hits
	}

	workers := 4 * runtime.GOMAXPROCS(0)
	const iters = 30
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				qi := (w + it) % len(queries)
				got, err := ix.Search(queries[qi].query, queries[qi].opts)
				if err != nil {
					errs <- err
					return
				}
				exp := want[qi]
				if len(got) != len(exp) {
					t.Errorf("worker %d: query %d: %d hits, want %d", w, qi, len(got), len(exp))
					return
				}
				for i := range got {
					if got[i].Doc != exp[i].Doc ||
						math.Float64bits(got[i].Score) != math.Float64bits(exp[i].Score) ||
						math.Float64bits(got[i].Relevance) != math.Float64bits(exp[i].Relevance) {
						t.Errorf("worker %d: query %d hit %d = %+v, want %+v", w, qi, i, got[i], exp[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
