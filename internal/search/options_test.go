package search

import (
	"errors"
	"testing"
)

// TestTopKValidationUniformAcrossModes pins the Options contract on both
// ranking modes: negative k rejected, zero k defaulted, k beyond the
// corpus clamped — identically for relevance alone and for the
// authority blend.
func TestTopKValidationUniformAcrossModes(t *testing.T) {
	ix := corpus() // 5 documents; "quick" matches 4
	const query, match = "quick", 4
	modes := []struct {
		name string
		opts Options
	}{
		{"vector", Options{}},
		{"authority", Options{Authority: []float64{0, 0.1, 5, 0, 0.1}, AuthorityWeight: 0.7}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			withK := func(k int) Options { o := m.opts; o.TopK = k; return o }
			for _, bad := range []int{-1, -100} {
				if _, err := ix.Search(query, withK(bad)); !errors.Is(err, ErrBadQuery) {
					t.Fatalf("TopK=%d accepted", bad)
				}
			}
			// Zero defaults to 10, clamped to the 5-doc corpus: every
			// match comes back, no error.
			hits, err := ix.Search(query, withK(0))
			if err != nil {
				t.Fatal(err)
			}
			if len(hits) != match {
				t.Fatalf("TopK=0: %d hits, want %d", len(hits), match)
			}
			// Requests far beyond NumDocs are clamped, not rejected.
			for _, k := range []int{ix.NumDocs(), ix.NumDocs() + 1, 1 << 20} {
				hits, err := ix.Search(query, withK(k))
				if err != nil {
					t.Fatalf("TopK=%d: %v", k, err)
				}
				if len(hits) != match {
					t.Fatalf("TopK=%d: %d hits, want %d", k, len(hits), match)
				}
			}
			// Truncation below the match count still works.
			hits, err = ix.Search(query, withK(1))
			if err != nil || len(hits) != 1 {
				t.Fatalf("TopK=1: %v, %v", hits, err)
			}
		})
	}
}

// TestTopKOnEmptyIndex: with nothing indexed there is nothing to clamp
// against; any positive k is accepted and the result is empty.
func TestTopKOnEmptyIndex(t *testing.T) {
	ix := NewIndex()
	hits, err := ix.Search("anything", Options{TopK: 7})
	if err != nil {
		t.Fatal(err)
	}
	if hits != nil {
		t.Fatalf("hits on empty index: %v", hits)
	}
}
