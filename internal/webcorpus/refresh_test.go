package webcorpus

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"pagequality/internal/graph"
	"pagequality/internal/ranking"
	"pagequality/internal/search"
)

// requireIndexMatchesRebuild builds an index from AllTexts beside the
// simulator's grown one — the only place a rebuild still exists — and
// fails unless the two agree on their statistics and on every query of
// the channel's vocabulary, bit for bit, over the whole relevant set.
func requireIndexMatchesRebuild(t *testing.T, label string, s *Sim) {
	t.Helper()
	rebuilt := search.NewIndex()
	rebuilt.AddAll(s.AllTexts(TextOptions{}))
	if s.ix.NumDocs() != rebuilt.NumDocs() || s.ix.NumTerms() != rebuilt.NumTerms() {
		t.Fatalf("%s: grown index has %d docs / %d terms, rebuild %d / %d",
			label, s.ix.NumDocs(), s.ix.NumTerms(), rebuilt.NumDocs(), rebuilt.NumTerms())
	}
	opts := search.Options{TopK: rebuilt.NumDocs()}
	for _, q := range s.QueryVocab(queryWordsPerTopic) {
		got, err := s.ix.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rebuilt.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s %q: %d hits, rebuild %d", label, q, len(got), len(want))
		}
		for i := range got {
			if got[i].Doc != want[i].Doc ||
				math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) ||
				math.Float64bits(got[i].Relevance) != math.Float64bits(want[i].Relevance) {
				t.Fatalf("%s %q hit %d: %+v, rebuild %+v", label, q, i, got[i], want[i])
			}
		}
	}
}

// TestRefreshIncrementalMatchesRebuild pins the refresh path: the one
// index a Sim grows across refreshes is, after every refresh, the index a
// rebuild from the current page texts would be — with no refresh during
// the burn-in and a page injected between two refreshes — and every
// page's text was analysed exactly once to get there.
func TestRefreshIncrementalMatchesRebuild(t *testing.T) {
	s, err := New(searchedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n, docs := s.RefreshStats(); n != 0 || docs != 0 {
		t.Fatalf("refresh ran before the search era: %d refreshes, %d docs", n, docs)
	}
	var seen, injectAfter int64 = 0, 3
	for seen < 9 {
		s.Step()
		n, docs := s.RefreshStats()
		if n == seen {
			if n == injectAfter {
				// Strictly between two refreshes: this tick ran none.
				if _, err := s.BirthPage(1, 0.9); err != nil {
					t.Fatal(err)
				}
				injectAfter = -1
			}
			continue
		}
		seen = n
		label := fmt.Sprintf("refresh %d", n)
		// Each page exactly once: the refresh is the tick's last
		// event, so the index covers every page there is. (Rebuilding
		// at every refresh, this figure was the sum over refreshes.)
		if docs != int64(s.NumPages()) {
			t.Fatalf("%s: %d documents analysed for %d pages", label, docs, s.NumPages())
		}
		requireIndexMatchesRebuild(t, label, s)
	}
	if injectAfter != -1 {
		t.Fatal("no page was injected between refreshes")
	}
}

// TestLexiconMatchesPageText: for every page of the simulate corpora on
// seeds 1 and 9, the refresh's analysis of the drawn words through the
// lexicon is Analyze of the rendered PageText — the same term ids with the same
// counts in the same order, hence the same (term, tf) multiset.
func TestLexiconMatchesPageText(t *testing.T) {
	for _, seed := range []int64{1, 9} {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Search = SearchConfig{SessionsPerWeek: 1500, TopK: 10, Policy: ranking.Randomized{Epsilon: 0.2}}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.AdvanceTo(6)
		for p := 0; p < s.NumPages(); p++ {
			id := graph.NodeID(p)
			got, want := s.lex.Analyze(s.pageWords(id, TextOptions{})), s.ix.Analyze(s.PageText(id, TextOptions{}))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d page %d: drawn words analyse to %+v, PageText to %+v", seed, p, got, want)
			}
		}
	}
}

// TestPageTextWordBounds: a MinWords above the default MaxWords (or any
// MaxWords below MinWords) used to reach rand.Intn with a non-positive
// argument and panic; the bounds now clamp to exactly MinWords words.
func TestPageTextWordBounds(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []TextOptions{{MinWords: 200}, {MinWords: 30, MaxWords: 10}} {
		text := s.PageText(0, opts)
		// "<topic> page <id>." is three words ahead of the drawn ones.
		if got := len(strings.Fields(text)) - 3; got != opts.MinWords {
			t.Fatalf("%+v: %d words, want %d", opts, got, opts.MinWords)
		}
	}
}

// BenchmarkSearchRefresh times refreshSearch alone on the default
// 154-site corpus: "first" indexes every page into an empty index (what
// every refresh used to cost), "weekly" is the refresh after one more
// week of growth. No refresh runs during the burn-in, and switching the
// sessions off afterwards keeps the untimed AdvanceTo from running one.
func BenchmarkSearchRefresh(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Search = SearchConfig{SessionsPerWeek: 1}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.cfg.Search.SessionsPerWeek = 0
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ix, s.prevPR = search.NewIndex(), nil
			s.lex = s.ix.Lexicon(pageVocab)
			s.refreshSearch()
		}
	})
	b.Run("weekly", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s.AdvanceTo(s.Time() + 1)
			b.StartTimer()
			s.refreshSearch()
		}
	})
}
