// Kernel benchmarks of the pipeline stages at sizes no cmd/bench
// workload reaches (100k-node PageRank, the incremental solve under
// graded churn, the corpus tick). The tables and figures themselves are
// regenerated and diffed by CI (`go run ./cmd/experiments | diff -
// experiments_output.txt`); end-to-end performance is cmd/bench's job.
package pagequality_test

import (
	"math"
	"math/rand"
	"testing"

	"pagequality/internal/graph"
	"pagequality/internal/model"
	"pagequality/internal/pagerank"
	"pagequality/internal/quality"
	"pagequality/internal/search"
	"pagequality/internal/snapshot"
	"pagequality/internal/webcorpus"
)

// BenchmarkCorpusGrowth times growing and burning in a corpus.
func BenchmarkCorpusGrowth(b *testing.B) {
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = 30
	cfg.BirthRate = 6
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := webcorpus.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusTick times the two-phase tick kernel alone (no corpus
// construction in the measured op) at workers=1 vs workers=max, on a
// corpus large enough to span several draw chunks. Bitwise invariance
// across the two settings is enforced by TestStepWorkerCountInvariance.
func BenchmarkCorpusTick(b *testing.B) {
	for _, bench := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=max", 0}} {
		b.Run(bench.name, func(b *testing.B) {
			cfg := webcorpus.DefaultConfig()
			cfg.Sites = 154
			cfg.BirthRate = 30
			cfg.BurnInWeeks = 40
			cfg.Seed = 1
			cfg.Workers = bench.workers
			sim, err := webcorpus.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step()
			}
		})
	}
}

// BenchmarkSnapshotEncodeDecode times store persistence of a four-crawl
// series.
func BenchmarkSnapshotEncodeDecode(b *testing.B) {
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = 30
	cfg.BirthRate = 6
	cfg.Seed = 1
	sim, err := webcorpus.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	snaps, err := sim.RunSchedule(webcorpus.PaperSchedule())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := snapshot.Encode(snaps)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := snapshot.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlignAndPageRankSeries times alignment plus the four PageRank
// computations of the experiment.
func BenchmarkAlignAndPageRankSeries(b *testing.B) {
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = 30
	cfg.BirthRate = 6
	cfg.Seed = 1
	sim, err := webcorpus.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	snaps, err := sim.RunSchedule(webcorpus.PaperSchedule())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al, err := snapshot.Align(snaps)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := al.PageRankSeries(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQualityEstimate times the estimator itself over a realistic
// series (isolated from corpus and PageRank costs).
func BenchmarkQualityEstimate(b *testing.B) {
	n := 100_000
	ranks := make([][]float64, 3)
	for k := range ranks {
		ranks[k] = make([]float64, n)
		for i := range ranks[k] {
			ranks[k][i] = 0.15 + float64((i*7+k*13)%100)/50
		}
	}
	cfg := quality.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := quality.EstimateFromSeries(ranks, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorem1Eval times the closed-form popularity evaluation.
func BenchmarkTheorem1Eval(b *testing.B) {
	p := model.Params{Q: 0.8, N: 1e8, R: 1e8, P0: 1e-8}
	for i := 0; i < b.N; i++ {
		if p.EstimateQ(float64(i%200)) < 0 {
			b.Fatal("negative estimate")
		}
	}
}

// BenchmarkPageRank100k times PageRank on a 100k-node synthetic web.
func BenchmarkPageRank100k(b *testing.B) {
	g, err := graph.GeneratePreferentialAttachment(
		graph.PreferentialAttachmentConfig{Nodes: 100_000, OutPerNode: 8},
		newRand(1))
	if err != nil {
		b.Fatal(err)
	}
	c := graph.Freeze(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pagerank.Compute(c, pagerank.Options{Tol: 1e-8})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("did not converge")
		}
	}
}

// newRand is a tiny helper keeping the benchmark imports tidy.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// BenchmarkIncrementalPageRank is the before/after benchmark of the
// delta-aware refresh path: a 100k-node preferential-attachment web with
// ~1% churn (new nodes plus edge adds and removals), solved by
// ComputeIncremental seeded from the pre-churn fixed point versus a cold
// full Compute. The setup asserts the two fixed points agree on the sum-1
// normalised vectors and that churn stays below the fallback threshold,
// so both sub-benchmarks time real converged solves of the same problem.
func BenchmarkIncrementalPageRank(b *testing.B) {
	const nodes = 100_000
	rng := newRand(1)
	g, err := graph.GeneratePreferentialAttachment(
		graph.PreferentialAttachmentConfig{Nodes: nodes, OutPerNode: 8}, rng)
	if err != nil {
		b.Fatal(err)
	}
	old := graph.Freeze(g)

	// ~1% churn: 300 removals, 500 additions, 100 new pages.
	for removed := 0; removed < 300; {
		from := graph.NodeID(rng.Intn(nodes))
		if outs := g.OutLinks(from); len(outs) > 1 {
			if g.RemoveLink(from, outs[rng.Intn(len(outs))]) {
				removed++
			}
		}
	}
	for added := 0; added < 500; {
		if g.AddLink(graph.NodeID(rng.Intn(nodes)), graph.NodeID(rng.Intn(nodes))) {
			added++
		}
	}
	first := g.AddNodes(100)
	for i := 0; i < 100; i++ {
		g.AddLink(graph.NodeID(rng.Intn(nodes)), first+graph.NodeID(i))
		g.AddLink(first+graph.NodeID(i), graph.NodeID(rng.Intn(nodes)))
	}
	cur := graph.Freeze(g)
	d, err := graph.Diff(old, cur)
	if err != nil {
		b.Fatal(err)
	}

	opts := pagerank.Options{Tol: 1e-8}
	incOpts := pagerank.IncrementalOptions{Options: opts}
	prev, err := pagerank.Compute(old, opts)
	if err != nil || !prev.Converged {
		b.Fatalf("pre-churn solve: %v", err)
	}
	full, err := pagerank.Compute(cur, opts)
	if err != nil || !full.Converged {
		b.Fatalf("full solve: %v", err)
	}
	inc, err := pagerank.ComputeIncremental(cur, prev.Rank, d, incOpts)
	if err != nil || !inc.Converged {
		b.Fatalf("incremental solve: %v", err)
	}
	if inc.FullRecompute {
		b.Fatalf("churn fallback tripped: %d dirty of %d nodes", inc.Dirty, cur.NumNodes())
	}
	sumF, sumI, l1 := 0.0, 0.0, 0.0
	for i := range full.Rank {
		sumF += full.Rank[i]
		sumI += inc.Rank[i]
	}
	for i := range full.Rank {
		l1 += math.Abs(inc.Rank[i]/sumI - full.Rank[i]/sumF)
	}
	if l1 > 10*opts.Tol {
		b.Fatalf("incremental diverges from full recompute: normalised L1 = %g", l1)
	}

	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := pagerank.ComputeIncremental(cur, prev.Rank, d, incOpts)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Converged || res.FullRecompute {
				b.Fatalf("bad solve: %+v", res)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := pagerank.Compute(cur, opts)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Converged {
				b.Fatal("did not converge")
			}
		}
	})
}

// benchGraph100k builds the 100k-node preferential-attachment graph used
// by the kernel benchmarks, with extra guaranteed dangling nodes so the
// dangling policy has real mass to move.
func benchGraph100k(b *testing.B) *graph.CSR {
	b.Helper()
	rng := newRand(1)
	g, err := graph.GeneratePreferentialAttachment(
		graph.PreferentialAttachmentConfig{Nodes: 100_000, OutPerNode: 8}, rng)
	if err != nil {
		b.Fatal(err)
	}
	first := g.AddNodes(2000)
	for i := 0; i < 2000; i++ {
		g.AddLink(graph.NodeID(rng.Intn(100_000)), first+graph.NodeID(i))
	}
	return graph.Freeze(g)
}

// BenchmarkPageRankKernel is the before/after benchmark of the PageRank
// hot-path rebuild: "reference" is the retained naive implementation
// (closure indirection, one division per edge, serial reduction passes),
// "optimized" is the specialised flat kernel with fused per-chunk
// reductions. Both run at Workers = GOMAXPROCS. The setup asserts the two
// agree to 1e-12 on the sum-1 normalised vectors.
func BenchmarkPageRankKernel(b *testing.B) {
	c := benchGraph100k(b)
	opts := pagerank.Options{Tol: 1e-8}

	check := pagerank.Options{Tol: 1e-13, MaxIter: 1000}
	fast, err := pagerank.Compute(c, check)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := pagerank.ComputeReference(c, check)
	if err != nil {
		b.Fatal(err)
	}
	if !fast.Converged || !ref.Converged {
		b.Fatal("verification runs did not converge")
	}
	total := 0.0
	for _, v := range fast.Rank {
		total += v
	}
	for i := range fast.Rank {
		if d := math.Abs(fast.Rank[i]-ref.Rank[i]) / total; d > 1e-12 {
			b.Fatalf("kernel diverges from reference at node %d by %g (normalised)", i, d)
		}
	}

	b.Run("optimized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := pagerank.Compute(c, opts)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Converged {
				b.Fatal("did not converge")
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := pagerank.ComputeReference(c, opts)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Converged {
				b.Fatal("did not converge")
			}
		}
	})
}

// benchSearchIndex builds the webcorpus-scale index used by the query
// benchmarks, plus a synthetic authority vector for the blended modes.
func benchSearchIndex(b *testing.B) (*search.Index, []float64) {
	b.Helper()
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = 60
	cfg.BirthRate = 10
	cfg.Seed = 3
	sim, err := webcorpus.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ix := search.NewIndex()
	for _, text := range sim.AllTexts(webcorpus.TextOptions{}) {
		ix.Add(text)
	}
	auth := make([]float64, ix.NumDocs())
	for i := range auth {
		auth[i] = float64(i%97) / 97
	}
	return ix, auth
}

// BenchmarkSearchQuery times the uncached query hot path of the search
// engine over a webcorpus-scale index: a short topical query and a
// multi-term query dominated by high-document-frequency background words
// (the worst case for per-posting work), with and without the authority
// blend. One warm-up query runs before the timer so index freezing is
// excluded — a serving process pays that cost once, not per query.
func BenchmarkSearchQuery(b *testing.B) {
	ix, auth := benchSearchIndex(b)
	// "astronomy" appears in page titles; commonN words span every site.
	const (
		shortQ = "astronomy"
		multiQ = "common1 common2 common3 common4 astronomy1 databases2 cycling3 chess4"
	)
	for _, bench := range []struct {
		name  string
		query string
		opts  search.Options
	}{
		{"vector/short", shortQ, search.Options{TopK: 10}},
		{"vector/multi", multiQ, search.Options{TopK: 10}},
		{"vector/multi/blend", multiQ, search.Options{TopK: 10, Authority: auth, AuthorityWeight: 0.7}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			if _, err := ix.Search(bench.query, bench.opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hits, err := ix.Search(bench.query, bench.opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(hits) == 0 {
					b.Fatal("no hits")
				}
			}
		})
	}
}
