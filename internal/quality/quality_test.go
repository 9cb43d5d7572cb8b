package quality

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"pagequality/internal/graph"
	"pagequality/internal/model"
	"pagequality/internal/snapshot"
)

func TestConfigDefaults(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.C != 0.1 || cfg.MinChangeFrac != 0.05 || !cfg.ApplyTrendToDecreasing {
		t.Fatalf("DefaultConfig = %+v", cfg)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := EstimateFromSeries([][]float64{{1}, {1}}, Config{C: -1}); !errors.Is(err, ErrBadInput) {
		t.Fatal("negative C accepted")
	}
	if _, err := EstimateFromSeries([][]float64{{1}, {1}}, Config{MinChangeFrac: -1}); !errors.Is(err, ErrBadInput) {
		t.Fatal("negative MinChangeFrac accepted")
	}
}

func TestSeriesValidation(t *testing.T) {
	if _, err := EstimateFromSeries([][]float64{{1, 2}}, DefaultConfig()); !errors.Is(err, ErrBadInput) {
		t.Fatal("single snapshot accepted")
	}
	if _, err := EstimateFromSeries([][]float64{{1, 2}, {1}}, DefaultConfig()); !errors.Is(err, ErrBadInput) {
		t.Fatal("ragged snapshots accepted")
	}
}

func TestPaperFormula(t *testing.T) {
	// One page with PR(t1)=1.0, PR(t2)=1.2, PR(t3)=1.5:
	// Q = 0.1*(1.5-1.0)/1.0 + 1.5 = 1.55.
	ranks := [][]float64{{1.0}, {1.2}, {1.5}}
	res, err := EstimateFromSeries(ranks, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Class[0] != ClassIncreasing {
		t.Fatalf("class = %v", res.Class[0])
	}
	if math.Abs(res.Q[0]-1.55) > 1e-12 {
		t.Fatalf("Q = %g, want 1.55", res.Q[0])
	}
	if !res.Changed[0] || res.NumChanged != 1 {
		t.Fatal("changed flag wrong")
	}
}

func TestStablePageEqualsCurrentPR(t *testing.T) {
	// "Our quality estimator becomes the same as the current PageRank if
	// the PageRank of a page does not change between t1 and t3."
	ranks := [][]float64{{2.0}, {2.02}, {2.04}} // 2% change, below 5% filter
	res, err := EstimateFromSeries(ranks, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Class[0] != ClassStable {
		t.Fatalf("class = %v, want stable", res.Class[0])
	}
	if res.Q[0] != 2.04 {
		t.Fatalf("Q = %g, want current PR 2.04", res.Q[0])
	}
	if res.Changed[0] || res.NumChanged != 0 {
		t.Fatal("stable page flagged as changed")
	}
}

func TestFluctuatingPageFallsBack(t *testing.T) {
	// "For these pages, we assumed that I(p,t) = 0 for our quality
	// estimator" (§9.1): up from t1 to t2, down from t2 to t3.
	ranks := [][]float64{{1.0}, {1.6}, {1.2}}
	res, err := EstimateFromSeries(ranks, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Class[0] != ClassFluctuating {
		t.Fatalf("class = %v, want fluctuating", res.Class[0])
	}
	if res.Q[0] != 1.2 {
		t.Fatalf("Q = %g, want current PR 1.2", res.Q[0])
	}
	if !res.Changed[0] {
		t.Fatal("20% net change not flagged")
	}
}

func TestDecreasingPage(t *testing.T) {
	ranks := [][]float64{{2.0}, {1.5}, {1.0}}
	// With trend: Q = 0.1*(1.0-2.0)/2.0 + 1.0 = 0.95.
	res, err := EstimateFromSeries(ranks, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Class[0] != ClassDecreasing {
		t.Fatalf("class = %v", res.Class[0])
	}
	if math.Abs(res.Q[0]-0.95) > 1e-12 {
		t.Fatalf("Q = %g, want 0.95", res.Q[0])
	}
	// Without trend, decreasing pages fall back to current PR.
	cfg := DefaultConfig()
	cfg.ApplyTrendToDecreasing = false
	res, err = EstimateFromSeries(ranks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Q[0] != 1.0 {
		t.Fatalf("Q without trend = %g, want 1.0", res.Q[0])
	}
}

func TestNegativeEstimateClamped(t *testing.T) {
	// Extreme collapse with large C would go negative; it must clamp at 0.
	ranks := [][]float64{{1.0}, {0.5}, {0.01}}
	res, err := EstimateFromSeries(ranks, Config{C: 10, MinChangeFrac: 0.05, ApplyTrendToDecreasing: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Q[0] != 0 {
		t.Fatalf("Q = %g, want clamp at 0", res.Q[0])
	}
}

// TestRisingStarFromZeroBaseline is the regression test for the bug where
// pages born between t1 and t3 — the paper's motivating rising stars,
// whose popularity starts at 0 — were silently dropped from the
// evaluation set (Changed was never set when ranks[0][i] == 0).
func TestRisingStarFromZeroBaseline(t *testing.T) {
	ranks := [][]float64{{0}, {0.2}, {0.4}}
	res, err := EstimateFromSeries(ranks, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Changed[0] || res.NumChanged != 1 {
		t.Fatal("rising star born during the window not flagged as changed")
	}
	if res.Class[0] != ClassIncreasing {
		t.Fatalf("class = %v, want increasing", res.Class[0])
	}
	// Trend is measured from the first positive snapshot (0.2):
	// Q = 0.1·(0.4-0.2)/0.2 + 0.4 = 0.5.
	if math.Abs(res.Q[0]-0.5) > 1e-12 {
		t.Fatalf("Q = %g, want 0.5", res.Q[0])
	}
}

func TestZeroBaselineEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name        string
		series      []float64
		wantClass   Class
		wantChanged bool
		wantQ       float64
	}{
		// Only the last snapshot is positive: trend 0, Q = current.
		{"born at the end", []float64{0, 0, 0.4}, ClassIncreasing, true, 0.4},
		// Leading zeros then growth: non-decreasing, still increasing.
		{"late bloomer", []float64{0, 0, 0.2, 0.4}, ClassIncreasing, true, 0.5},
		// Born then died back to zero: fluctuating, net change zero.
		{"born and died", []float64{0, 1, 0}, ClassFluctuating, false, 0},
		// Born then declined but still positive: fluctuating, changed.
		{"born then declined", []float64{0, 0.4, 0.2}, ClassFluctuating, true, 0.2},
		// Never any popularity: stable, nothing to evaluate.
		{"all zero", []float64{0, 0, 0}, ClassStable, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ranks := make([][]float64, len(tc.series))
			for k, v := range tc.series {
				ranks[k] = []float64{v}
			}
			res, err := EstimateFromSeries(ranks, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if res.Class[0] != tc.wantClass {
				t.Fatalf("class = %v, want %v", res.Class[0], tc.wantClass)
			}
			if res.Changed[0] != tc.wantChanged {
				t.Fatalf("changed = %v, want %v", res.Changed[0], tc.wantChanged)
			}
			if math.Abs(res.Q[0]-tc.wantQ) > 1e-12 {
				t.Fatalf("Q = %g, want %g", res.Q[0], tc.wantQ)
			}
		})
	}
}

// TestExplicitZeroCIsPurePopularity guards the C = 0 endpoint of Ablation
// A: an explicit C of zero must survive fill (not be rewritten to the 0.1
// default) so the estimator degenerates to the current popularity exactly.
func TestExplicitZeroCIsPurePopularity(t *testing.T) {
	ranks := [][]float64{{1.0}, {1.2}, {1.5}}
	res, err := EstimateFromSeries(ranks, Config{C: 0, MinChangeFrac: 0.05, ApplyTrendToDecreasing: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class[0] != ClassIncreasing {
		t.Fatalf("class = %v", res.Class[0])
	}
	if res.Q[0] != 1.5 {
		t.Fatalf("Q = %g, want exactly the current popularity 1.5", res.Q[0])
	}
}

func TestCountsAndClasses(t *testing.T) {
	ranks := [][]float64{
		{1.0, 2.0, 1.0, 3.0},
		{1.2, 1.5, 1.6, 3.01},
		{1.5, 1.0, 1.2, 3.0},
	}
	res, err := EstimateFromSeries(ranks, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := []Class{ClassIncreasing, ClassDecreasing, ClassFluctuating, ClassStable}
	for i, w := range want {
		if res.Class[i] != w {
			t.Fatalf("page %d class = %v, want %v", i, res.Class[i], w)
		}
	}
	if res.Counts[ClassIncreasing] != 1 || res.Counts[ClassStable] != 1 ||
		res.Counts[ClassDecreasing] != 1 || res.Counts[ClassFluctuating] != 1 {
		t.Fatalf("counts = %v", res.Counts)
	}
	if res.NumChanged != 3 {
		t.Fatalf("NumChanged = %d, want 3", res.NumChanged)
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassStable: "stable", ClassIncreasing: "increasing",
		ClassDecreasing: "decreasing", ClassFluctuating: "fluctuating",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
	if Class(9).String() == "" {
		t.Error("unknown class empty string")
	}
}

// Property: the estimate of an increasing page always exceeds its current
// popularity (the trend term is positive), and for C=0 it equals it.
func TestQuickIncreasingEstimateAboveCurrent(t *testing.T) {
	f := func(base, g1, g2 float64) bool {
		b := 0.1 + math.Abs(math.Mod(base, 10))
		p1 := b * (1.07 + math.Abs(math.Mod(g1, 1)))
		p2 := p1 * (1.07 + math.Abs(math.Mod(g2, 1)))
		ranks := [][]float64{{b}, {p1}, {p2}}
		res, err := EstimateFromSeries(ranks, DefaultConfig())
		if err != nil || res.Class[0] != ClassIncreasing {
			return false
		}
		if res.Q[0] <= p2 {
			return false
		}
		res0, err := EstimateFromSeries(ranks, Config{C: 1e-300, MinChangeFrac: 0.05})
		if err != nil {
			return false
		}
		return math.Abs(res0.Q[0]-p2) < 1e-9*p2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// End-to-end consistency with the analytic model: feed the estimator a
// popularity trajectory sampled from Theorem 1 and check it recovers Q
// better than the raw popularity does, early in the page's life.
func TestEstimatorBeatsPopularityOnModelTrajectory(t *testing.T) {
	p := model.Params{Q: 0.3, N: 1e8, R: 1e8, P0: 1e-6}
	// Snapshots at weeks 30..32 (early expansion). The gaps must be short
	// enough that ΔPR/PR(t1) first-order-approximates the derivative — the
	// same regime as the paper's monthly crawls against slow PR drift.
	t1, t2, t3 := 30.0, 31.0, 32.0
	ranks := [][]float64{
		{p.PopularityAt(t1)},
		{p.PopularityAt(t2)},
		{p.PopularityAt(t3)},
	}
	// The continuous-time constant (n/r)/(t3-t1) maps the discrete
	// difference onto I(p,t); using C tuned to the snapshot gap.
	cfg := Config{C: p.N / p.R / (t3 - t1), MinChangeFrac: 0.05, ApplyTrendToDecreasing: true}
	res, err := EstimateFromSeries(ranks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	estErr := math.Abs(res.Q[0] - p.Q)
	popErr := math.Abs(ranks[2][0] - p.Q)
	if estErr >= popErr {
		t.Fatalf("estimator error %g not below popularity error %g", estErr, popErr)
	}
}

func alignedFixture(t *testing.T) *snapshot.Aligned {
	t.Helper()
	mk := func(links [][2]int) *graph.Graph {
		g := graph.New(5)
		for i := 0; i < 5; i++ {
			g.MustAddPage(graph.Page{URL: string(rune('a' + i))})
		}
		for _, l := range links {
			g.AddLink(graph.NodeID(l[0]), graph.NodeID(l[1]))
		}
		return g
	}
	// Page e (index 4) steadily gains in-links; page a stays static.
	snaps := []snapshot.Snapshot{
		{Label: "t1", Time: 0, Graph: mk([][2]int{{0, 1}, {1, 0}, {0, 4}})},
		{Label: "t2", Time: 4, Graph: mk([][2]int{{0, 1}, {1, 0}, {0, 4}, {1, 4}})},
		{Label: "t3", Time: 8, Graph: mk([][2]int{{0, 1}, {1, 0}, {0, 4}, {1, 4}, {2, 4}})},
		{Label: "t4", Time: 26, Graph: mk([][2]int{{0, 1}, {1, 0}, {0, 4}, {1, 4}, {2, 4}, {3, 4}})},
	}
	al, err := snapshot.Align(snaps)
	if err != nil {
		t.Fatal(err)
	}
	return al
}

func TestFromAligned(t *testing.T) {
	al := alignedFixture(t)
	res, ranks, err := FromAligned(al, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 4 || len(res.Q) != 5 {
		t.Fatalf("shapes: %d snapshots, %d pages", len(ranks), len(res.Q))
	}
	// Page e gains links: increasing class, estimate above current PR, and
	// closer to the future PR than the current PR is.
	e := 4
	if res.Class[e] != ClassIncreasing {
		t.Fatalf("page e class = %v", res.Class[e])
	}
	if res.Q[e] <= ranks[2][e] {
		t.Fatalf("estimate %g not above current PR %g", res.Q[e], ranks[2][e])
	}
	future := ranks[3][e]
	if math.Abs(res.Q[e]-future) >= math.Abs(ranks[2][e]-future) {
		t.Fatalf("estimate %g not closer to future %g than current %g",
			res.Q[e], future, ranks[2][e])
	}
	if _, _, err := FromAligned(al, 1, DefaultConfig()); !errors.Is(err, ErrBadInput) {
		t.Fatal("estimationSnaps=1 accepted")
	}
	if _, _, err := FromAligned(al, 9, DefaultConfig()); !errors.Is(err, ErrBadInput) {
		t.Fatal("estimationSnaps beyond series accepted")
	}
}

func BenchmarkEstimateFromSeries(b *testing.B) {
	n := 100000
	ranks := make([][]float64, 3)
	for k := range ranks {
		ranks[k] = make([]float64, n)
		for i := range ranks[k] {
			ranks[k][i] = 1 + float64(k)*0.3 + float64(i%7)*0.01
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateFromSeries(ranks, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
