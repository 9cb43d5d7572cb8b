package quality_test

import (
	"fmt"

	"pagequality/internal/graph"
	"pagequality/internal/quality"
	"pagequality/internal/snapshot"
)

// Three crawls of a four-page Web: one page rising, one falling, one
// noisy, one static. The estimator extrapolates the trends and falls
// back to the current value where no trend is measurable.
func ExampleEstimateFromSeries() {
	ranks := [][]float64{
		{0.50, 2.00, 1.00, 1.00}, // t1
		{0.65, 1.70, 1.30, 1.01}, // t2
		{0.80, 1.40, 1.10, 1.00}, // t3
	}
	res, err := quality.EstimateFromSeries(ranks, quality.DefaultConfig())
	if err != nil {
		panic(err)
	}
	names := []string{"riser", "faller", "noisy", "static"}
	for i, n := range names {
		fmt.Printf("%-7s %-11s PR=%.2f Q=%.3f\n", n, res.Class[i], ranks[2][i], res.Q[i])
	}
	// Output:
	// riser   increasing  PR=0.80 Q=0.860
	// faller  decreasing  PR=1.40 Q=1.370
	// noisy   fluctuating PR=1.10 Q=1.100
	// static  stable      PR=1.00 Q=1.000
}

// fivePageWeb is one crawl of a hand-built Web: a static core of four
// pages, and the page "new", which gets one in-link per crawl so far.
func fivePageWeb(label string, week float64, crawl int) snapshot.Snapshot {
	g := graph.New(5)
	ids := map[string]graph.NodeID{}
	for _, u := range []string{"home", "docs", "blog", "about", "new"} {
		ids[u] = g.MustAddPage(graph.Page{URL: u})
	}
	for _, l := range [][2]string{
		{"home", "docs"}, {"home", "blog"}, {"docs", "home"},
		{"blog", "home"}, {"about", "home"}, {"home", "about"},
	} {
		g.AddLink(ids[l[0]], ids[l[1]])
	}
	for _, src := range []string{"docs", "blog", "about"}[:crawl] {
		g.AddLink(ids[src], ids["new"])
	}
	return snapshot.Snapshot{Label: label, Time: week, Graph: g}
}

// Three crawls of a five-page Web, a month apart. By the third, "new"
// ties "home" on PageRank; its rising trend lifts its quality estimate
// clear above it, the paper's antidote to the rich-get-richer bias. The
// static pages, losing a little share to it, read as decreasing.
func ExampleFromAligned() {
	al, err := snapshot.Align([]snapshot.Snapshot{
		fivePageWeb("t1", 0, 1),
		fivePageWeb("t2", 4, 2),
		fivePageWeb("t3", 8, 3),
	})
	if err != nil {
		panic(err)
	}
	est, ranks, err := quality.FromAligned(al, 3, quality.DefaultConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-5s  %-10s  %6s  %5s\n", "page", "class", "PR(t3)", "Q")
	for i, url := range al.URLs {
		fmt.Printf("%-5s  %-10s  %6.3f  %5.3f\n", url, est.Class[i], ranks[2][i], est.Q[i])
	}
	// Output:
	// page   class       PR(t3)      Q
	// about  decreasing   0.764  0.758
	// blog   decreasing   0.764  0.758
	// docs   decreasing   0.764  0.758
	// home   decreasing   1.354  1.323
	// new    increasing   1.354  1.482
}
