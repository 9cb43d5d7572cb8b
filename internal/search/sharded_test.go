package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
)

// shardedQueries is the query mix the parity and race tests drive: short
// and multi-term queries, absent terms, and authority blends at several
// weights, one through an authority order (which Index.Search walks and
// ShardedIndex does not).
func shardedQueries(numDocs int) (queries []string, opts []Options) {
	auth := make([]float64, numDocs)
	for i := range auth {
		auth[i] = 1 / float64(i%13+1)
	}
	queries = []string{
		"shared common term3 term8",
		"term1 term5 term8 everywhere",
		"shared everywhere",
		"term2 unique7 zzz",
		"unique3",
		"term40 term39 term38 term37 term36 shared",
		"term4 term9 everywhere common",
	}
	opts = []Options{
		{TopK: 20},
		{TopK: 10, Authority: auth},
		{TopK: 30},
		{TopK: 15, Authority: auth, AuthorityWeight: 0.3},
		{TopK: 5, Authority: auth, AuthorityWeight: 1},
		{TopK: numDocs},
		{TopK: 10, Authority: auth, AuthorityWeight: 0.7, Order: orderOf(auth)},
	}
	return queries, opts
}

// requireSameHits fails unless the two hit lists are bitwise identical:
// same docs in the same order, same Float64bits of every score.
func requireSameHits(t *testing.T, label string, got, want []Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Doc != want[i].Doc ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) ||
			math.Float64bits(got[i].Relevance) != math.Float64bits(want[i].Relevance) {
			t.Fatalf("%s: hit %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestShardedParity is the reference-oracle contract of the scatter-gather
// engine: for every shard count, worker count and option shape, the
// sharded result equals the unsharded Index.Search bit for bit — same doc
// ids, same math.Float64bits scores.
func TestShardedParity(t *testing.T) {
	docs := synthDocs(150)
	ix := buildIndex(docs)
	queries, optsList := shardedQueries(len(docs))

	want := make([][][]Hit, len(queries))
	for qi, q := range queries {
		want[qi] = make([][]Hit, len(optsList))
		for oi, o := range optsList {
			hits, err := ix.Search(q, o)
			if err != nil {
				t.Fatal(err)
			}
			want[qi][oi] = hits
		}
	}

	for _, shards := range []int{1, 2, 4, 8} {
		for _, workers := range []int{1, 2, 3, 8} {
			si, err := ix.Shard(shards, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(si.parts) != shards {
				t.Fatalf("%d shards, want %d", len(si.parts), shards)
			}
			// One shard is the frozen view itself, not a copy of it; any
			// other count owns its posting slices.
			if shared := si.parts[0] == si.f; shared != (shards == 1) {
				t.Fatalf("shards=%d: part 0 shares the global view = %v", shards, shared)
			}
			for qi, q := range queries {
				for oi, o := range optsList {
					got, err := si.SearchContext(context.Background(), q, o)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("shards=%d workers=%d query=%d opts=%d", shards, workers, qi, oi)
					requireSameHits(t, label, got, want[qi][oi])
				}
			}
		}
	}

	// The shared view stays the snapshot taken at Shard time: an Add to
	// the parent builds a new frozen view and leaves the old one alone.
	one, err := ix.Shard(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix.Add("shared common term3 term8 everywhere latecomer")
	if _, err := ix.Search(queries[0], optsList[0]); err != nil { // refreeze the parent
		t.Fatal(err)
	}
	for qi, q := range queries {
		for oi, o := range optsList {
			got, err := one.SearchContext(context.Background(), q, o)
			if err != nil {
				t.Fatal(err)
			}
			requireSameHits(t, fmt.Sprintf("one shard after Add: query=%d opts=%d", qi, oi), got, want[qi][oi])
		}
	}
}

// TestShardedParityTinyCorpus covers the degenerate geometries: more
// shards than documents (clamped), single-document corpora, and uneven
// shard sizes where the last shards hold one document fewer.
func TestShardedParityTinyCorpus(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7} {
		docs := synthDocs(n)
		ix := buildIndex(docs)
		si, err := ix.Shard(8, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(si.parts) != n {
			t.Fatalf("n=%d: shards clamped to %d, want %d", n, len(si.parts), n)
		}
		for _, q := range []string{"shared common", "unique0", "zzz"} {
			want, err := ix.Search(q, Options{TopK: 5})
			if err != nil {
				t.Fatal(err)
			}
			got, err := si.SearchContext(context.Background(), q, Options{TopK: 5})
			if err != nil {
				t.Fatal(err)
			}
			requireSameHits(t, fmt.Sprintf("n=%d q=%q", n, q), got, want)
		}
	}
}

// TestShardValidation pins the Shard configuration contract: shard and
// worker counts at or below zero are rejected (workers=0 meaning
// GOMAXPROCS excepted), oversized shard counts clamp instead of failing —
// the same convention Options.TopK follows.
func TestShardValidation(t *testing.T) {
	ix := buildIndex(synthDocs(10))
	for _, shards := range []int{0, -1, -100} {
		if _, err := ix.Shard(shards, 1); !errors.Is(err, ErrBadShard) {
			t.Fatalf("shards=%d accepted: %v", shards, err)
		}
	}
	if _, err := ix.Shard(2, -1); !errors.Is(err, ErrBadShard) {
		t.Fatal("workers=-1 accepted")
	}
	si, err := ix.Shard(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if si.workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("workers=0 resolved to %d, want GOMAXPROCS=%d", si.workers, runtime.GOMAXPROCS(0))
	}
	if si, err := ix.Shard(1000, 2); err != nil || len(si.parts) != ix.NumDocs() {
		t.Fatalf("oversized shard count not clamped: %v, %v", si, err)
	}

	// Empty index: shard count clamps to one, searches come back empty.
	empty, err := NewIndex().Shard(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.parts) != 1 {
		t.Fatalf("empty index sharded to %d", len(empty.parts))
	}
	hits, err := empty.SearchContext(context.Background(), "anything", Options{TopK: 3})
	if err != nil || hits != nil {
		t.Fatalf("empty sharded search = %v, %v", hits, err)
	}

	// Query validation matches the unsharded engine.
	si2, err := ix.Shard(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := si2.SearchContext(context.Background(), "...", Options{}); !errors.Is(err, ErrBadQuery) {
		t.Fatal("empty query accepted")
	}
	if _, err := si2.SearchContext(context.Background(), "shared", Options{TopK: -1}); !errors.Is(err, ErrBadQuery) {
		t.Fatal("negative TopK accepted")
	}
}

// TestShardedContextCancel: a cancelled context aborts the fan-out and
// surfaces ctx.Err() — the server-side half of the ctxhttp discipline,
// letting a client disconnect cancel in-flight shard work.
func TestShardedContextCancel(t *testing.T) {
	ix := buildIndex(synthDocs(64))
	for _, workers := range []int{1, 4} {
		si, err := ix.Shard(8, workers)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := si.SearchContext(ctx, "shared common", Options{TopK: 5}); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled search returned %v, want context.Canceled", workers, err)
		}
		// The same index still serves once the pressure is gone.
		hits, err := si.SearchContext(context.Background(), "shared common", Options{TopK: 5})
		if err != nil || len(hits) == 0 {
			t.Fatalf("workers=%d: post-cancel search = %v, %v", workers, hits, err)
		}
	}
}

// TestShardedConcurrent hammers one ShardedIndex from many goroutines and
// checks every result bitwise against the serial unsharded answer. Under
// -race this pins the concurrency contract the serving path relies on:
// scratch leases and fan-out state are per-call, the partitioned layout
// is immutable.
func TestShardedConcurrent(t *testing.T) {
	docs := synthDocs(120)
	ix := buildIndex(docs)
	queries, optsList := shardedQueries(len(docs))
	want := make([][]Hit, len(queries))
	for i := range queries {
		hits, err := ix.Search(queries[i], optsList[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = hits
	}
	si, err := ix.Shard(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	goroutines := 4 * runtime.GOMAXPROCS(0)
	const iters = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				qi := (g + it) % len(queries)
				got, err := si.SearchContext(context.Background(), queries[qi], optsList[qi])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if len(got) != len(want[qi]) {
					t.Errorf("goroutine %d: query %d: %d hits, want %d", g, qi, len(got), len(want[qi]))
					return
				}
				for i := range got {
					if got[i].Doc != want[qi][i].Doc ||
						math.Float64bits(got[i].Score) != math.Float64bits(want[qi][i].Score) {
						t.Errorf("goroutine %d: query %d hit %d = %+v, want %+v", g, qi, i, got[i], want[qi][i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkShardedSearch measures the scatter-gather path against the
// single-shard baseline on a multi-term query over a corpus large enough
// that shard kernels dominate the fan-out cost.
func BenchmarkShardedSearch(b *testing.B) {
	docs := synthDocs(4000)
	ix := buildIndex(docs)
	query := "term1 term2 term3 term5 term8 shared common everywhere"
	for _, cfg := range []struct{ shards, workers int }{
		{1, 1}, {2, 2}, {4, 4}, {8, 8},
	} {
		b.Run(fmt.Sprintf("shards=%d", cfg.shards), func(b *testing.B) {
			si, err := ix.Shard(cfg.shards, cfg.workers)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := si.SearchContext(context.Background(), query, Options{TopK: 10}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
