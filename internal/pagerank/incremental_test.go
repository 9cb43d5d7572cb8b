package pagerank

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"pagequality/internal/graph"
)

// churnGraphs builds a preferential-attachment graph, freezes it, then
// applies a bounded amount of churn — edge additions, removals and a few
// new nodes — and freezes again.
func churnGraphs(t testing.TB, nodes, newNodes, addEdges, removeEdges int, seed int64) (old, cur *graph.CSR) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := graph.GeneratePreferentialAttachment(
		graph.PreferentialAttachmentConfig{Nodes: nodes, OutPerNode: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	old = graph.Freeze(g)

	for removed := 0; removed < removeEdges; {
		from := graph.NodeID(rng.Intn(nodes))
		if outs := g.OutLinks(from); len(outs) > 1 { // keep the graph connected-ish
			if g.RemoveLink(from, outs[rng.Intn(len(outs))]) {
				removed++
			}
		}
	}
	for added := 0; added < addEdges; {
		if g.AddLink(graph.NodeID(rng.Intn(nodes)), graph.NodeID(rng.Intn(nodes))) {
			added++
		}
	}
	first := g.AddNodes(newNodes)
	for i := 0; i < newNodes; i++ {
		g.AddLink(graph.NodeID(rng.Intn(nodes)), first+graph.NodeID(i))
		g.AddLink(first+graph.NodeID(i), graph.NodeID(rng.Intn(nodes)))
	}
	return old, graph.Freeze(g)
}

// normalizedL1 returns the L1 distance between the sum-1 normalisations
// of a and b.
func normalizedL1(t testing.TB, a, b []float64) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("length mismatch %d vs %d", len(a), len(b))
	}
	sa, sb := 0.0, 0.0
	for i := range a {
		sa += a[i]
		sb += b[i]
	}
	d := 0.0
	for i := range a {
		d += math.Abs(a[i]/sa - b[i]/sb)
	}
	return d
}

// TestIncrementalParity pins the incremental fixed point to the full
// Compute fixed point within the convergence tolerance, for both variants.
func TestIncrementalParity(t *testing.T) {
	old, cur := churnGraphs(t, 3000, 15, 30, 20, 7)
	d, err := graph.Diff(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumChanges() == 0 {
		t.Fatal("fixture produced no churn")
	}

	cases := []struct {
		name string
		opts Options
	}{
		{"paper-uniform", Options{Variant: VariantPaper}},
		{"standard-uniform", Options{Variant: VariantStandard}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prev, err := Compute(old, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			full, err := Compute(cur, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := ComputeIncremental(cur, prev.Rank, d, IncrementalOptions{Options: tc.opts})
			if err != nil {
				t.Fatal(err)
			}
			if inc.FullRecompute {
				t.Fatalf("churn fallback tripped on %d dirty of %d nodes", inc.Dirty, cur.NumNodes())
			}
			if !inc.Converged {
				t.Fatalf("incremental did not converge: %+v", inc.Result)
			}
			tol := tc.opts.Tol
			if tol == 0 {
				tol = 1e-9
			}
			if l1 := normalizedL1(t, inc.Rank, full.Rank); l1 > 10*tol {
				t.Fatalf("incremental diverges from full recompute: L1 = %g", l1)
			}
			if inc.Dirty == 0 || inc.FrontierSweeps == 0 || inc.FrontierUpdates == 0 {
				t.Fatalf("frontier phase did not run: %+v", inc)
			}
			// The warm start must save power iterations over the cold start.
			if inc.Iterations >= full.Iterations {
				t.Errorf("polish took %d iterations, full compute %d — no warm-start win",
					inc.Iterations, full.Iterations)
			}
		})
	}
}

// TestIncrementalChurnFallback pins the fallback contract: past the churn
// threshold the result is bitwise identical to Compute.
func TestIncrementalChurnFallback(t *testing.T) {
	// 300 edge edits on 500 nodes dirty well over a quarter of the graph.
	old, cur := churnGraphs(t, 500, 10, 200, 100, 3)
	d, err := graph.Diff(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := Compute(old, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Compute(cur, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := ComputeIncremental(cur, prev.Rank, d, IncrementalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !inc.FullRecompute {
		t.Fatalf("churn threshold did not trip with %d dirty nodes of %d", inc.Dirty, cur.NumNodes())
	}
	if inc.Iterations != full.Iterations || inc.Converged != full.Converged {
		t.Fatalf("fallback diagnostics differ: %+v vs %+v", inc.Result, full)
	}
	for i := range full.Rank {
		if math.Float64bits(inc.Rank[i]) != math.Float64bits(full.Rank[i]) {
			t.Fatalf("fallback not bitwise identical at node %d: %x vs %x",
				i, math.Float64bits(inc.Rank[i]), math.Float64bits(full.Rank[i]))
		}
	}
}

// TestIncrementalNoChange: an empty delta converges immediately from the
// previous vector.
func TestIncrementalNoChange(t *testing.T) {
	old, _ := churnGraphs(t, 500, 0, 0, 0, 5)
	d, err := graph.Diff(old, old)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := Compute(old, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := ComputeIncremental(old, prev.Rank, d, IncrementalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Dirty != 0 || inc.FrontierSweeps != 0 {
		t.Fatalf("empty delta did frontier work: %+v", inc)
	}
	if !inc.Converged || inc.Iterations > 2 {
		t.Fatalf("no-change polish took %d iterations", inc.Iterations)
	}
	if l1 := normalizedL1(t, inc.Rank, prev.Rank); l1 > 1e-8 {
		t.Fatalf("no-change result moved by L1 %g", l1)
	}
}

// TestIncrementalDeterminism: the incremental path is bitwise
// reproducible, including across Workers settings (the frontier phase is
// serial; the polish sweeps are chunk-deterministic like Compute).
func TestIncrementalDeterminism(t *testing.T) {
	old, cur := churnGraphs(t, 2000, 20, 40, 20, 11)
	d, err := graph.Diff(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := Compute(old, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ref *IncrementalResult
	for _, workers := range []int{1, 2, 4} {
		inc, err := ComputeIncremental(cur, prev.Rank, d, IncrementalOptions{
			Options: Options{Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = inc
			continue
		}
		if inc.Iterations != ref.Iterations || inc.FrontierSweeps != ref.FrontierSweeps ||
			inc.FrontierUpdates != ref.FrontierUpdates {
			t.Fatalf("workers=%d diagnostics differ: %+v vs %+v", workers, inc, ref)
		}
		for i := range ref.Rank {
			if math.Float64bits(inc.Rank[i]) != math.Float64bits(ref.Rank[i]) {
				t.Fatalf("workers=%d not bitwise identical at node %d", workers, i)
			}
		}
	}
}

func TestIncrementalBadInput(t *testing.T) {
	old, cur := churnGraphs(t, 500, 5, 10, 5, 9)
	d, err := graph.Diff(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := Compute(old, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeIncremental(cur, prev.Rank, nil, IncrementalOptions{}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("nil delta accepted: %v", err)
	}
	if _, err := ComputeIncremental(cur, prev.Rank[:10], d, IncrementalOptions{}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("short previous vector accepted: %v", err)
	}
	if _, err := ComputeIncremental(old, prev.Rank, d, IncrementalOptions{}); !errors.Is(err, graph.ErrDelta) {
		t.Fatalf("delta applied to wrong CSR accepted: %v", err)
	}
	if _, err := ComputeIncremental(cur, prev.Rank, d, IncrementalOptions{
		Options: Options{Extrapolate: true},
	}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("Extrapolate accepted: %v", err)
	}
}
