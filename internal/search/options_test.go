package search

import (
	"context"
	"errors"
	"math"
	"slices"
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

// TestAuthorityOrder pins the order's contract: descending authority,
// equal values (-0 and 0 included) by ascending doc id; NaN and ±Inf
// refused by the constructor; and Options.Order accepted only over the
// very slice it was built from — not a copy, not a reslice, not without
// Authority — by Index.Search and ShardedIndex alike.
func TestAuthorityOrder(t *testing.T) {
	o, err := NewAuthorityOrder([]float64{0.5, 1, 0.5, math.Copysign(0, -1), 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{1, 0, 2, 3, 4, 5}; !slices.Equal(o.docs, want) {
		t.Fatalf("order %v, want %v", o.docs, want)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewAuthorityOrder([]float64{1, bad, 0}); !errors.Is(err, ErrBadQuery) {
			t.Fatalf("authority %v: error %v, want ErrBadQuery", bad, err)
		}
	}

	ix := corpus() // 5 documents
	auth := []float64{0, 0.1, 5, 0, 0.1}
	order := orderOf(auth)
	sx, err := ix.Shard(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	copied := append([]float64(nil), auth...)
	longer := append(append(make([]float64, 0, 6), auth...), 7)
	for name, opts := range map[string]Options{
		"another vector": {Authority: copied, Order: order},
		"no authority":   {Order: order},
		"a shorter one":  {Authority: auth, Order: orderOf(auth[:4])},
		"a longer one":   {Authority: longer[:5], Order: orderOf(longer)},
	} {
		if _, err := ix.Search("quick", opts); !errors.Is(err, ErrBadQuery) {
			t.Fatalf("%s: Search error %v, want ErrBadQuery", name, err)
		}
		if _, err := sx.SearchContext(context.Background(), "quick", opts); !errors.Is(err, ErrBadQuery) {
			t.Fatalf("%s: SearchContext error %v, want ErrBadQuery", name, err)
		}
	}
	plain, err := ix.Search("quick", Options{Authority: auth, AuthorityWeight: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	walked, err := ix.Search("quick", Options{Authority: auth, AuthorityWeight: 0.7, Order: order})
	if err != nil {
		t.Fatal(err)
	}
	hitsBitwiseEqual(t, "walked", walked, plain)
}
