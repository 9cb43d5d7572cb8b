package pagerank

import (
	"errors"
	"math/rand"
	"testing"

	"pagequality/internal/graph"
)

func TestAdaptiveMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g, err := graph.GeneratePreferentialAttachment(graph.PreferentialAttachmentConfig{Nodes: 3000, OutPerNode: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := graph.Freeze(g)
	plain, err := Compute(c, Options{Tol: 1e-10, MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := ComputeAdaptive(c, Options{Tol: 1e-10, MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !adaptive.Converged {
		t.Fatal("adaptive did not converge")
	}
	if d := maxAbsDiff(plain.Rank, adaptive.Rank); d > 1e-6 {
		t.Fatalf("adaptive differs from plain by %g", d)
	}
}

func TestAdaptiveActuallySkipsWork(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g, err := graph.GeneratePreferentialAttachment(graph.PreferentialAttachmentConfig{Nodes: 5000, OutPerNode: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := graph.Freeze(g)
	res, err := ComputeAdaptive(c, Options{Tol: 1e-10, MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedUpdates == 0 {
		t.Fatal("no updates skipped — adaptivity inactive")
	}
	frozen := 0
	for _, at := range res.FrozenAt {
		if at > 0 {
			frozen++
			if at > res.Iterations {
				t.Fatalf("page frozen at iteration %d > total %d", at, res.Iterations)
			}
		}
	}
	if frozen < c.NumNodes()/2 {
		t.Fatalf("only %d of %d pages froze", frozen, c.NumNodes())
	}
}

func TestAdaptiveEmptyAndValidation(t *testing.T) {
	res, err := ComputeAdaptive(graph.Freeze(graph.New(0)), Options{})
	if err != nil || !res.Converged {
		t.Fatalf("empty graph: %+v, %v", res, err)
	}
	c := cycle(4)
	if _, err := ComputeAdaptive(c, Options{MaxIter: -1}); !errors.Is(err, ErrBadOptions) {
		t.Fatal("negative MaxIter accepted")
	}
}

func TestAdaptiveCycleUniform(t *testing.T) {
	res, err := ComputeAdaptive(cycle(10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Rank { // paper normalisation: the ranks sum to n
		if v < 0.999 || v > 1.001 {
			t.Fatalf("rank[%d] = %g", i, v)
		}
	}
}

func BenchmarkAdaptivePageRank10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := graph.GeneratePreferentialAttachment(graph.PreferentialAttachmentConfig{Nodes: 10000, OutPerNode: 6}, rng)
	if err != nil {
		b.Fatal(err)
	}
	c := graph.Freeze(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeAdaptive(c, Options{Tol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}
