package search

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
)

// hitsBitwiseEqual fails the test unless the two hit lists agree exactly:
// same length, same doc ids in the same order, and bitwise-identical
// Score and Relevance floats.
func hitsBitwiseEqual(t *testing.T, label string, got, want []Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].Doc != want[i].Doc ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) ||
			math.Float64bits(got[i].Relevance) != math.Float64bits(want[i].Relevance) {
			t.Fatalf("%s: hit %d = %+v, want bitwise %+v", label, i, got[i], want[i])
		}
	}
}

// orderOf is NewAuthorityOrder for a vector a test knows to be finite.
func orderOf(auth []float64) *AuthorityOrder {
	o, err := NewAuthorityOrder(auth)
	if err != nil {
		panic(err)
	}
	return o
}

// TestSearchMatchesReference is the pin for the flat-kernel rewrite:
// across truncating and non-truncating TopK values and with and without
// authority blending — offering every match, or walking an authority
// order — the frozen-postings path must
// return exactly the hits of the historical map-accumulator scorer —
// same docs, same order, same Float64bits.
func TestSearchMatchesReference(t *testing.T) {
	docs := synthDocs(150)
	ix := buildIndex(docs)
	auth := make([]float64, len(docs))
	for i := range auth {
		auth[i] = 1 / float64(i%23+1)
	}
	order := orderOf(auth)
	queries := []string{
		"term1",
		"shared",
		"term1 term2 term3 term5 term8 term13 term21 term34",
		"shared common everywhere unique3 term7",
		"term1 term1 term1 shared", // repeated query term
		"term2 zzz-absent",         // one term missing from the vocabulary
		"zzz-absent qqq-absent",    // fully unknown query
		"unique5 unique6 unique7",  // singleton postings
	}
	type variant struct {
		name string
		opts Options
	}
	variants := []variant{
		{"k1", Options{TopK: 1}},
		{"k10", Options{TopK: 10}},
		{"k-all", Options{TopK: len(docs)}},
		{"k-overshoot", Options{TopK: 10 * len(docs)}},
		{"auth", Options{TopK: 20, Authority: auth}},
		{"auth-w1", Options{TopK: 20, Authority: auth, AuthorityWeight: 1}},
		{"order", Options{TopK: 20, Authority: auth, Order: order}},
		{"order-w1", Options{TopK: 20, Authority: auth, AuthorityWeight: 1, Order: order}},
		{"order-k1", Options{TopK: 1, Authority: auth, AuthorityWeight: 0.7, Order: order}},
		{"order-k-all", Options{TopK: len(docs), Authority: auth, AuthorityWeight: 0.7, Order: order}},
	}
	for _, q := range queries {
		for _, v := range variants {
			label := fmt.Sprintf("%s/%q", v.name, q)
			want, werr := ix.searchReference(q, v.opts)
			got, gerr := ix.Search(q, v.opts)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s: err %v, reference err %v", label, gerr, werr)
			}
			hitsBitwiseEqual(t, label, got, want)
		}
	}
}

// TestSearchMatchesReferenceAfterIncrementalAdd pins parity across the
// freeze/invalidate cycle: search, add more documents (invalidating the
// frozen view), and search again.
func TestSearchMatchesReferenceAfterIncrementalAdd(t *testing.T) {
	docs := synthDocs(60)
	ix := buildIndex(docs)
	q := "shared common term3 term8"
	for round := 0; round < 3; round++ {
		opts := Options{TopK: 15}
		want, err := ix.searchReference(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		hitsBitwiseEqual(t, fmt.Sprintf("round %d", round), got, want)
		ix.AddAll(synthDocs(10)) // duplicates existing docs: heavier postings
	}
}

// TestFrozenMatchesReferenceNorms pins the freeze-time precomputation
// against the historical lazy norm computation, bit for bit.
func TestFrozenMatchesReferenceNorms(t *testing.T) {
	ix := buildIndex(synthDocs(90))
	want := ix.normsReference()
	f := ix.frozen()
	if len(f.norm) != len(want) {
		t.Fatalf("frozen has %d norms, want %d", len(f.norm), len(want))
	}
	for i := range want {
		if math.Float64bits(f.norm[i]) != math.Float64bits(want[i]) {
			t.Fatalf("norm[%d] = %x, want bitwise %x", i, f.norm[i], want[i])
		}
	}
	for i := range f.start[:len(f.start)-1] {
		if f.start[i] > f.start[i+1] {
			t.Fatalf("start offsets not monotone at term %d", i)
		}
		for j := f.start[i] + 1; j < f.start[i+1]; j++ {
			if f.docs[j-1] >= f.docs[j] {
				t.Fatalf("postings of term %d not in ascending doc order", i)
			}
		}
	}
}

// TestTopKSelection exercises the bounded heap directly against a full
// sort, over adversarial score patterns (many exact ties, all scores
// equal) and at every relation of k to the candidate count n: k < n,
// k == n and k > n, where the heap is sized to n and never fills.
func TestTopKSelection(t *testing.T) {
	const n = 200
	patterns := []struct {
		name  string
		score func(doc int) float64
	}{
		{"ties mod 7", func(doc int) float64 { return float64(doc % 7) }},
		{"all equal", func(int) float64 { return 0.5 }},
	}
	for _, p := range patterns {
		hits := make([]Hit, n)
		for i := range hits {
			// Offer in an order unrelated to the ranking order.
			d := (i * 37) % n
			hits[i] = Hit{Doc: d, Score: p.score(d), Relevance: float64(d)}
		}
		full := append([]Hit(nil), hits...)
		sort.Slice(full, func(i, j int) bool {
			if full[i].Score != full[j].Score { //pqlint:allow floateq exact score ties decide the comparator's tie-break branch
				return full[i].Score > full[j].Score
			}
			return full[i].Doc < full[j].Doc
		})
		for _, k := range []int{1, 2, 7, 50, n - 1, n, n + 1, 5 * n} {
			top := newTopK(k, len(hits))
			if cap(top.hits) > n {
				t.Fatalf("%s k=%d: heap sized %d for %d candidates", p.name, k, cap(top.hits), n)
			}
			for _, h := range hits {
				top.offer(h)
			}
			hitsBitwiseEqual(t, fmt.Sprintf("%s k=%d", p.name, k), top.ranked(), full[:min(k, n)])
		}
	}
}

// TestSearchTopKBeyondRelevantSet pins the heap sizing: asking for the
// whole relevant set (TopK = NumDocs) costs memory proportional to the
// documents that matched,
// not to the corpus, and returns exactly what a TopK of that size does.
func TestSearchTopKBeyondRelevantSet(t *testing.T) {
	const numDocs, relevant = 10000, 5
	docs := make([]string, numDocs)
	for i := range docs {
		docs[i] = fmt.Sprintf("filler%d common everywhere", i%50)
		if i%(numDocs/relevant) == 7 {
			docs[i] += " needle"
		}
	}
	ix := buildIndex(docs)
	want, err := ix.Search("needle", Options{TopK: relevant})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != relevant {
		t.Fatalf("relevant set has %d documents, want %d", len(want), relevant)
	}
	all := Options{TopK: numDocs}
	got, err := ix.Search("needle", all)
	if err != nil {
		t.Fatal(err)
	}
	hitsBitwiseEqual(t, "TopK = NumDocs", got, want)
	if raceEnabled {
		return
	}

	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := ix.Search("needle", all); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes runs+1 calls. A heap sized to the corpus would
	// be numDocs × 24 B = 240 KB a call.
	perCall := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	if perCall >= 2048 || allocs > 12 {
		t.Fatalf("Search at TopK = NumDocs allocates %d B in %.0f allocations a call, want < 2 KB", perCall, allocs)
	}
	t.Logf("%d B, %.0f allocations a call", perCall, allocs)
}

// fuzzIndex is the small fixed corpus FuzzSearchQuery searches.
var fuzzIndex = buildIndex(append(synthDocs(60), analyzeSeeds...))

// fuzzAuthority and fuzzTies are the fixed authority vectors
// FuzzSearchQuery blends in, each with its order. fuzzAuthority is
// positive, repeating every 23 documents. fuzzTies is positive only on
// every fifth document, all at one value, and 0, -0 or negative
// elsewhere: a relevant set off those documents has no positive maximum
// (the walk has no bound), and one on them ties at the bound.
var (
	fuzzAuthority = fuzzVector(func(i int) float64 { return 1 / float64(i%23+1) })
	fuzzTies      = fuzzVector(func(i int) float64 {
		if i%5 == 0 {
			return 0.25
		}
		return -float64(i % 3)
	})
	fuzzAuthorityOrder = orderOf(fuzzAuthority)
	fuzzTiesOrder      = orderOf(fuzzTies)
)

func fuzzVector(a func(doc int) float64) []float64 {
	auth := make([]float64, fuzzIndex.NumDocs())
	for i := range auth {
		auth[i] = a(i)
	}
	return auth
}

// FuzzSearchQuery: for arbitrary query bytes and k, ranked by relevance
// alone or — blend % 5 from 1 to 4 — through an authority order over
// fuzzAuthority or fuzzTies at weight 0.7 (what /search serves for
// rank=quality|pagerank) or 1 (the ranking policies' weight), Search
// never panics, fails exactly when the retained reference scorer fails
// and only with ErrBadQuery, and otherwise returns the reference's hits
// bit for bit — at most k of them, in ranking order. The seeds are the
// committed corpus under testdata/fuzz/FuzzSearchQuery, which runs on
// every plain `go test`: no token at all, non-ASCII and invalid bytes,
// repeated and absent terms under every blend, a relevant set with no
// positive authority, ties at the walk's bound, and k zero (the
// default), negative, and far beyond the corpus.
func FuzzSearchQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, query string, blend uint8, k int) {
		opts := Options{TopK: k}
		if blend %= 5; blend > 0 {
			opts.Authority, opts.Order = fuzzAuthority, fuzzAuthorityOrder
			if blend%2 == 0 {
				opts.Authority, opts.Order = fuzzTies, fuzzTiesOrder
			}
			opts.AuthorityWeight = 0.7
			if blend > 2 {
				opts.AuthorityWeight = 1
			}
		}
		got, err := fuzzIndex.Search(query, opts)
		want, refErr := fuzzIndex.searchReference(query, opts)
		if (err != nil) != (refErr != nil) || (err != nil && !errors.Is(err, ErrBadQuery)) {
			t.Fatalf("Search(%q, %+v) error %v, reference error %v", query, opts, err, refErr)
		}
		if err != nil {
			return
		}
		if k == 0 {
			k = 10 // Options' documented default
		}
		if len(got) > k {
			t.Fatalf("Search(%q, %+v) returned %d hits", query, opts, len(got))
		}
		for i := 1; i < len(got); i++ {
			if !ranksAfter(got[i], got[i-1]) {
				t.Fatalf("Search(%q, %+v): hits %d and %d out of order: %+v %+v", query, opts, i-1, i, got[i-1], got[i])
			}
		}
		hitsBitwiseEqual(t, fmt.Sprintf("Search(%q, %+v)", query, opts), got, want)
	})
}

// TestAuthorityWalkTieAtTheBound builds the case the walk's strict
// comparison exists for: a later, lower-authority match whose bound —
// and score — equals the heap root's score exactly, and whose smaller
// doc id wins the tie. At weight 0.5, doc 0 (relevance 1, authority r)
// and doc 1 (relevance r, authority 1) both score 0.5 + 0.5·r in the
// same floats. Doc 1 comes first in authority order and fills the k = 1
// heap; stopping at a bound equal to its score would return it instead
// of doc 0.
func TestAuthorityWalkTieAtTheBound(t *testing.T) {
	ix := buildIndex([]string{"alpha", "alpha beta gamma"})
	rel, err := ix.Search("alpha", Options{TopK: 2})
	if err != nil || len(rel) != 2 || rel[0].Doc != 0 {
		t.Fatalf("relevance ranking %v, %v", rel, err)
	}
	auth := []float64{rel[1].Score, 1}
	both, err := ix.Search("alpha", Options{TopK: 2, Authority: auth, AuthorityWeight: 0.5})
	if err != nil || math.Float64bits(both[0].Score) != math.Float64bits(both[1].Score) {
		t.Fatalf("the two documents do not tie: %v, %v", both, err)
	}
	opts := Options{TopK: 1, Authority: auth, AuthorityWeight: 0.5}
	want, err := ix.Search("alpha", opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Order = orderOf(auth)
	got, err := ix.Search("alpha", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 || want[0].Doc != 0 {
		t.Fatalf("linear pass returned %v, want doc 0 on the tie", want)
	}
	hitsBitwiseEqual(t, "walk", got, want)
}
