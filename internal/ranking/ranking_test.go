package ranking

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"pagequality/internal/randx"
	"pagequality/internal/search"
)

// buildCtx indexes nDocs documents all relevant to "alpha", with
// PageRank descending in document id and Quality ascending — so the two
// score-based policies produce opposite orders.
func buildCtx(t testing.TB, nDocs int) *Context {
	return buildCtxWith(t, nDocs, func(int) string { return "alpha" })
}

// buildCtxWith is buildCtx with words(d) in place of "alpha" in document d.
func buildCtxWith(t testing.TB, nDocs int, words func(d int) string) *Context {
	t.Helper()
	ix := search.NewIndex()
	for d := 0; d < nDocs; d++ {
		ix.Add(fmt.Sprintf("%s document %d filler words", words(d), d))
	}
	ix.Freeze()
	pr := make([]float64, nDocs)
	q := make([]float64, nDocs)
	for d := 0; d < nDocs; d++ {
		pr[d] = float64(nDocs - d)
		q[d] = float64(d + 1)
	}
	return &Context{Index: ix, PageRank: pr, Quality: q, Seed: 42, Tick: 7}
}

// fresh returns a Context over c's index, vectors, seed and tick with an
// empty memo: a Context may not be copied once it has ranked.
func fresh(c *Context) *Context {
	return &Context{Index: c.Index, PageRank: c.PageRank, Quality: c.Quality, Seed: c.Seed, Tick: c.Tick}
}

func TestParse(t *testing.T) {
	cases := []struct {
		name    string
		epsilon float64
		want    string
		ok      bool
	}{
		{"none", 0, "none", true},
		{"", 0, "none", true},
		{"pagerank", 0, "pagerank", true},
		{"Quality", 0, "quality", true},
		{"randomized", 0.25, "randomized-0.25", true},
		{"randomized", -0.1, "", false},
		{"randomized", 1.5, "", false},
		{"hits", 0, "", false},
	}
	for _, tc := range cases {
		pol, err := Parse(tc.name, tc.epsilon)
		if tc.ok != (err == nil) {
			t.Errorf("Parse(%q, %g): err=%v, want ok=%v", tc.name, tc.epsilon, err, tc.ok)
			continue
		}
		if err != nil {
			if !errors.Is(err, ErrBadPolicy) {
				t.Errorf("Parse(%q): error %v is not ErrBadPolicy", tc.name, err)
			}
			continue
		}
		if pol.Name() != tc.want {
			t.Errorf("Parse(%q).Name() = %q, want %q", tc.name, pol.Name(), tc.want)
		}
	}
}

func TestNoneReturnsNothing(t *testing.T) {
	docs, err := None{}.Rank(buildCtx(t, 10), "alpha", 5)
	if err != nil || docs != nil {
		t.Fatalf("None.Rank = %v, %v; want nil, nil", docs, err)
	}
}

func TestScorePoliciesOrder(t *testing.T) {
	ctx := buildCtx(t, 8)
	byPR, err := ByPageRank{}.Rank(ctx, "alpha", 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(byPR, want) {
		t.Fatalf("ByPageRank order %v, want %v", byPR, want)
	}
	byQ, err := ByQuality{}.Rank(ctx, "alpha", 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{7, 6, 5, 4}; !reflect.DeepEqual(byQ, want) {
		t.Fatalf("ByQuality order %v, want %v", byQ, want)
	}
}

func TestRankNoHits(t *testing.T) {
	ctx := buildCtx(t, 5)
	for _, pol := range []Policy{ByPageRank{}, ByQuality{}, Randomized{Epsilon: 0.5}} {
		docs, err := pol.Rank(ctx, "nosuchterm", 3)
		if err != nil || docs != nil {
			t.Fatalf("%s on empty query: %v, %v", pol.Name(), docs, err)
		}
	}
}

// policies is every built-in policy, at the epsilons that matter:
// degenerate, the benchmark's and all-random.
var policies = []Policy{None{}, ByPageRank{}, ByQuality{},
	Randomized{Epsilon: 0}, Randomized{Epsilon: 0.2}, Randomized{Epsilon: 1}}

// alphaBetaCtx matches "alpha" in 300 documents and "beta" in every
// third.
func alphaBetaCtx(t testing.TB) *Context {
	return buildCtxWith(t, 300, func(d int) string {
		if d%3 == 0 {
			return "alpha beta"
		}
		return "alpha"
	})
}

// queries are what the tests rank on alphaBetaCtx: a wide and a narrow
// relevant set, their union, one every document's text shares, and none.
var queries = []string{"alpha", "beta", "alpha beta", "document 7", "nosuchterm"}

// TestPoliciesConcurrentRank holds every built-in policy to the Policy
// contract the corpus simulator relies on: Rank called from 8 goroutines
// on one Context returns what the serial call returns, and under -race
// no call writes what another reads — on a Context whose memo the
// serial calls filled, and on fresh ones where all 8 goroutines rank
// the same cold query at once.
func TestPoliciesConcurrentRank(t *testing.T) {
	ctx := alphaBetaCtx(t)
	type call struct {
		pol   Policy
		query string
		k     int
	}
	var calls []call
	var want [][]int
	for _, pol := range policies {
		for _, q := range queries {
			for _, k := range []int{1, 10, 500} {
				docs, err := pol.Rank(ctx, q, k)
				if err != nil {
					t.Fatal(err)
				}
				calls = append(calls, call{pol, q, k})
				want = append(want, docs)
			}
		}
	}
	const goroutines = 8
	got := make([][][]int, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([][]int, len(calls))
			// Each goroutine walks the calls from its own offset, so the
			// same call runs concurrently with different ones.
			for n := range calls {
				i := (n + g*7) % len(calls)
				var err error
				if got[g][i], err = calls[i].pol.Rank(ctx, calls[i].query, calls[i].k); err != nil {
					errs[g] = err
				}
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i, c := range calls {
			if !reflect.DeepEqual(got[g][i], want[i]) {
				t.Fatalf("goroutine %d: %s.Rank(%q, %d) = %v, serial %v", g, c.pol.Name(), c.query, c.k, got[g][i], want[i])
			}
		}
	}

	for i, c := range calls {
		cold := fresh(ctx)
		var start sync.WaitGroup
		start.Add(1)
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				got[g][i], errs[g] = c.pol.Rank(cold, c.query, c.k)
			}()
		}
		start.Done()
		wg.Wait()
		for g := range got {
			if errs[g] != nil || !reflect.DeepEqual(got[g][i], want[i]) {
				t.Fatalf("cold, goroutine %d: %s.Rank(%q, %d) = %v, %v; serial %v", g, c.pol.Name(), c.query, c.k, got[g][i], errs[g], want[i])
			}
		}
	}
}

// TestRankMemoMatchesFreshContext: every policy, ranking every query at
// several k on one Context across 20 ticks, returns exactly what it
// returns on a fresh Context for the same call, and a caller that
// overwrites a returned list changes no later result.
func TestRankMemoMatchesFreshContext(t *testing.T) {
	ctx := alphaBetaCtx(t)
	for tick := uint64(0); tick < 20; tick++ {
		ctx.Tick = tick
		for _, pol := range policies {
			for _, q := range queries {
				for _, k := range []int{1, 10, 150} {
					got, err := pol.Rank(ctx, q, k)
					if err != nil {
						t.Fatal(err)
					}
					want, err := pol.Rank(fresh(ctx), q, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("tick %d %s.Rank(%q, %d) = %v, fresh Context %v", tick, pol.Name(), q, k, got, want)
					}
					for i := range got {
						got[i] = -1
					}
				}
			}
		}
	}
}

// TestRandomizedEpsilonZeroEquivalence pins the degenerate case of the
// Pandey/Cho construction: with no exploration slots the partially
// randomized ranking IS pure score order.
func TestRandomizedEpsilonZeroEquivalence(t *testing.T) {
	ctx := buildCtx(t, 40)
	for _, k := range []int{1, 3, 10, 39, 40, 100} {
		pure, err := ByPageRank{}.Rank(ctx, "alpha", k)
		if err != nil {
			t.Fatal(err)
		}
		rand0, err := Randomized{Epsilon: 0}.Rank(ctx, "alpha", k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pure, rand0) {
			t.Fatalf("k=%d: epsilon=0 order %v differs from pure %v", k, rand0, pure)
		}
	}
}

func TestRandomizedConstruction(t *testing.T) {
	const nDocs, k = 50, 10
	const epsilon = 0.3 // 3 of 10 slots randomized
	ctx := buildCtx(t, nDocs)
	docs, err := Randomized{Epsilon: epsilon}.Rank(ctx, "alpha", k)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != k {
		t.Fatalf("got %d results, want %d", len(docs), k)
	}
	// Top (1-eps)k slots are exactly the pure prefix.
	nTop := k - 3
	pure, err := ByPageRank{}.Rank(ctx, "alpha", nDocs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(docs[:nTop], pure[:nTop]) {
		t.Fatalf("deterministic slots %v differ from pure prefix %v", docs[:nTop], pure[:nTop])
	}
	// Exploration slots come from the remainder, without replacement.
	rest := map[int]bool{}
	for _, d := range pure[nTop:] {
		rest[d] = true
	}
	seen := map[int]bool{}
	for _, d := range docs[nTop:] {
		if !rest[d] {
			t.Fatalf("exploration slot %d not drawn from the remainder", d)
		}
		if seen[d] {
			t.Fatalf("document %d sampled twice", d)
		}
		seen[d] = true
	}

	// Deterministic per (seed, query, tick)...
	again, err := Randomized{Epsilon: epsilon}.Rank(ctx, "alpha", k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(docs, again) {
		t.Fatalf("same (ctx, query, k) gave %v then %v", docs, again)
	}
	// ...but fresh exploration across ticks: some tick in a small window
	// must shuffle differently.
	varied := false
	for tick := uint64(0); tick < 8 && !varied; tick++ {
		other := fresh(ctx)
		other.Tick = 1000 + tick
		got, err := Randomized{Epsilon: epsilon}.Rank(other, "alpha", k)
		if err != nil {
			t.Fatal(err)
		}
		varied = !reflect.DeepEqual(docs, got)
	}
	if !varied {
		t.Fatal("exploration slots identical across 8 different ticks")
	}
}

// fullSortRandomized is Randomized.Rank as it was before it selected:
// the whole relevant set in score order, then a partial Fisher–Yates over
// its suffix, in place. TestRandomizedMatchesFullSort holds Rank to it.
func fullSortRandomized(ctx *Context, epsilon float64, query string, k int) ([]int, error) {
	hits, err := ctx.Index.Search(query, search.Options{TopK: ctx.Index.NumDocs(), Authority: ctx.PageRank, AuthorityWeight: 1})
	if err != nil || len(hits) == 0 {
		return nil, err
	}
	all := make([]int, len(hits))
	for i, h := range hits {
		all[i] = h.Doc
	}
	if len(all) <= k {
		return all, nil
	}
	nRand := int(math.Round(epsilon * float64(k)))
	rest := all[k-nRand:]
	st := randx.NewStream(ctx.Seed, randomizedSalt^randx.Key(query), ctx.Tick)
	for i := 0; i < nRand; i++ {
		j := i + randx.Intn(&st, len(rest)-i)
		rest[i], rest[j] = rest[j], rest[i]
	}
	return all[:k], nil
}

// TestRandomizedMatchesFullSort: selecting only the shown ranks returns
// the full-sort policy's doc lists exactly — at every epsilon, at k below,
// at and past the relevant set's size, over 50 ticks, on relevant sets of
// three sizes, with distinct, constant, all-zero and pairwise-equal
// PageRank (the ties the doc id breaks).
func TestRandomizedMatchesFullSort(t *testing.T) {
	base := buildCtxWith(t, 60, func(d int) string {
		w := ""
		if d%3 != 0 {
			w += "alpha "
		}
		if d%2 == 0 {
			w += "beta"
		}
		return w
	})
	for _, c := range []struct {
		name string
		pr   func(d int) float64
	}{
		{"distinct", func(d int) float64 { return base.PageRank[d] }},
		{"constant", func(int) float64 { return 0.3 }},
		{"zero", func(int) float64 { return 0 }},
		{"pairwise-tied", func(d int) float64 { return float64(d / 2) }},
	} {
		ctx := fresh(base)
		ctx.PageRank = make([]float64, len(base.PageRank))
		for d := range ctx.PageRank {
			ctx.PageRank[d] = c.pr(d)
		}
		for _, q := range []string{"alpha", "beta", "alpha beta"} {
			all, err := ByPageRank{}.Rank(ctx, q, ctx.Index.NumDocs())
			if err != nil {
				t.Fatal(err)
			}
			m := len(all)
			for _, k := range []int{1, 2, 10, m - 1, m, m + 1} {
				for _, eps := range []float64{0, 0.05, 0.2, 0.5, 1} {
					pol := Randomized{Epsilon: eps}
					for tick := uint64(0); tick < 50; tick++ {
						ctx.Tick = tick
						got, err := pol.Rank(ctx, q, k)
						if err != nil {
							t.Fatal(err)
						}
						want, err := fullSortRandomized(ctx, eps, q, k)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %q k=%d eps=%g tick %d: %v, full sort %v", c.name, q, k, eps, tick, got, want)
						}
					}
				}
			}
		}
	}
}

// TestRandomizedNamesDistinct: epsilons that agree to two significant
// digits used to print as one name.
func TestRandomizedNamesDistinct(t *testing.T) {
	for _, pair := range [][2]float64{{0.12, 0.125}, {0.33, 0.333}} {
		a, b := Randomized{Epsilon: pair[0]}.Name(), Randomized{Epsilon: pair[1]}.Name()
		if a == b {
			t.Errorf("epsilon %g and %g are both named %q", pair[0], pair[1], a)
		}
	}
	// The names reports already print (TestParse pins randomized-0.25).
	if got := (Randomized{Epsilon: 0.2}).Name(); got != "randomized-0.2" {
		t.Errorf("epsilon 0.2 is named %q", got)
	}
}

func TestRandomizedFewerDocsThanSlots(t *testing.T) {
	ctx := buildCtx(t, 6)
	docs, err := Randomized{Epsilon: 0.5}.Rank(ctx, "alpha", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 6 {
		t.Fatalf("got %d results, want all 6 relevant docs", len(docs))
	}
}

func TestRankValidation(t *testing.T) {
	ctx := buildCtx(t, 5)
	if _, err := (ByPageRank{}).Rank(ctx, "alpha", 0); !errors.Is(err, ErrBadPolicy) {
		t.Errorf("k=0: %v", err)
	}
	if _, err := (ByPageRank{}).Rank(nil, "alpha", 3); !errors.Is(err, ErrBadPolicy) {
		t.Errorf("nil ctx: %v", err)
	}
	short := fresh(ctx)
	short.PageRank = short.PageRank[:3]
	if _, err := (ByPageRank{}).Rank(short, "alpha", 3); !errors.Is(err, ErrBadPolicy) {
		t.Errorf("score length mismatch: %v", err)
	}
	if _, err := (Randomized{Epsilon: 1.5}).Rank(ctx, "alpha", 3); !errors.Is(err, ErrBadPolicy) {
		t.Errorf("bad epsilon: %v", err)
	}
}

// BenchmarkRandomizedRank: "wide" matches all 2000 documents, "narrow"
// every twentieth — about the share of the corpus a topic query matches
// in the feedback loop. "warm" ranks on one Context, so every call after
// the first reads the memo; "cold" ranks on a fresh Context each time,
// so every call retrieves and orders the relevant set.
func BenchmarkRandomizedRank(b *testing.B) {
	for _, c := range []struct {
		name  string
		words func(d int) string
	}{
		{"wide", func(int) string { return "alpha" }},
		{"narrow", func(d int) string {
			if d%20 == 0 {
				return "alpha"
			}
			return "omega"
		}},
	} {
		for _, cold := range []bool{false, true} {
			name := c.name + "/warm"
			if cold {
				name = c.name + "/cold"
			}
			b.Run(name, func(b *testing.B) {
				ctx := buildCtxWith(b, 2000, c.words)
				pol := Randomized{Epsilon: 0.2}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if cold {
						ctx = fresh(ctx)
					}
					ctx.Tick = uint64(i)
					if _, err := pol.Rank(ctx, "alpha", 10); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkByPageRankRank(b *testing.B) {
	ctx := buildCtx(b, 2000)
	pol := ByPageRank{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pol.Rank(ctx, "alpha", 10); err != nil {
			b.Fatal(err)
		}
	}
}
