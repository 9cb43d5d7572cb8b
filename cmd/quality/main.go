// Command quality applies the paper's quality estimator to a snapshot
// store: it aligns the snapshots on their common pages, computes the
// PageRank series, estimates Q(p) = C·ΔPR/PR + PR from the first
// estimation snapshots, and — when a later snapshot exists — scores the
// estimate against that "future" PageRank exactly as in §8.2.
//
// Usage:
//
//	quality -in web.pqs [-snaps 3] [-c 1.0] [-maxtrend 0.3] [-top 20]
//
// A crawl archive is read by extracting each label into the store with
// cmd/extract first.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"pagequality/internal/experiments"
	"pagequality/internal/metrics"
	"pagequality/internal/quality"
	"pagequality/internal/snapshot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quality:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("quality", flag.ContinueOnError)
	cfg := quality.CorpusConfig()
	var (
		in       = fs.String("in", "web.pqs", "snapshot store path")
		snapsN   = fs.Int("snaps", 3, "number of leading snapshots used for estimation")
		c        = fs.Float64("c", cfg.C, "estimator constant C")
		maxTrend = fs.Float64("maxtrend", cfg.MaxTrend, "trend cap (0 disables)")
		minCh    = fs.Float64("minchange", cfg.MinChangeFrac, "stable-page threshold")
		top      = fs.Int("top", 20, "number of pages to print")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	snaps, err := snapshot.ReadFile(*in)
	if err != nil {
		return err
	}
	if len(snaps) < 2 {
		return fmt.Errorf("store has %d snapshots; need at least 2", len(snaps))
	}
	al, err := snapshot.Align(snaps)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d snapshots, %d common pages\n", al.NumSnapshots(), al.NumPages())

	cfg.C, cfg.MinChangeFrac, cfg.MaxTrend = *c, *minCh, *maxTrend
	est, ranks, err := quality.FromAligned(al, *snapsN, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "classes: increasing=%d decreasing=%d fluctuating=%d stable=%d (changed>%.0f%%: %d)\n",
		est.Counts[quality.ClassIncreasing], est.Counts[quality.ClassDecreasing],
		est.Counts[quality.ClassFluctuating], est.Counts[quality.ClassStable],
		*minCh*100, est.NumChanged)

	// Top pages by estimated quality.
	order := metrics.BestFirst(est.Q)
	k := *top
	if k > len(order) {
		k = len(order)
	}
	cur := ranks[*snapsN-1]
	fmt.Fprintf(out, "\n%4s  %10s  %10s  %-11s  %s\n", "rank", "Q(p)", "PR(now)", "class", "url")
	for i := 0; i < k; i++ {
		p := order[i]
		fmt.Fprintf(out, "%4d  %10.4f  %10.4f  %-11s  %s\n",
			i+1, est.Q[p], cur[p], est.Class[p], al.URLs[p])
	}

	// If a future snapshot exists, score like §8.2.
	if al.NumSnapshots() > *snapsN {
		res, err := experiments.Evaluate(est, cur, ranks[len(ranks)-1], nil)
		if errors.Is(err, experiments.ErrNoChangedPages) {
			return nil
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nprediction of %s over %d changed pages:\n",
			al.Labels[len(ranks)-1], res.PagesScored)
		fmt.Fprintf(out, "  avg rel. error  Q(p): %.3f   PR(now): %.3f\n", res.AvgErrQ, res.AvgErrPR)
		fmt.Fprintf(out, "  median          Q(p): %.3f   PR(now): %.3f\n", res.MedianErrQ, res.MedianErrPR)
	}
	return nil
}
