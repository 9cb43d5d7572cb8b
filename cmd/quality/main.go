// Command quality applies the paper's quality estimator to a snapshot
// store: it aligns the snapshots on their common pages, computes the
// PageRank series, estimates Q(p) = C·ΔPR/PR + PR from the first
// estimation snapshots, and — when a later snapshot exists — scores the
// estimate against that "future" PageRank exactly as in §8.2.
//
// Usage:
//
//	quality -in web.pqs [-snaps 3] [-c 1.0] [-maxtrend 0.3] [-top 20]
//	quality -archive pages/ [-labels t1,t2,t3] [...]
//
// With -archive, snapshots are re-extracted straight from a crawl
// archive (one corpus pass per label) instead of a snapshot store; the
// estimate and the report are identical to extracting each label with
// cmd/extract and running the -in route on the result.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"pagequality/internal/corpus"
	"pagequality/internal/metrics"
	"pagequality/internal/pagerank"
	"pagequality/internal/pagestore"
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
	var (
		in       = fs.String("in", "web.pqs", "snapshot store path")
		archive  = fs.String("archive", "", "crawl archive directory (replaces -in: snapshots re-extracted per label)")
		labels   = fs.String("labels", "", "comma-separated archive labels, in time order (default: all, time-sorted)")
		snapsN   = fs.Int("snaps", 3, "number of leading snapshots used for estimation")
		c        = fs.Float64("c", 1.0, "estimator constant C")
		maxTrend = fs.Float64("maxtrend", 0.3, "trend cap (0 disables)")
		minCh    = fs.Float64("minchange", 0.05, "stable-page threshold")
		top      = fs.Int("top", 20, "number of pages to print")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var snaps []snapshot.Snapshot
	if *archive != "" {
		arch, err := pagestore.Open(*archive, pagestore.Options{})
		if err != nil {
			return err
		}
		defer arch.Close()
		want := strings.Split(*labels, ",")
		if *labels == "" {
			if want, err = corpus.ArchiveLabels(arch, corpus.Options{}); err != nil {
				return err
			}
		}
		if snaps, err = corpus.SnapshotsFromArchive(arch, want, corpus.Options{}); err != nil {
			return err
		}
	} else {
		var err error
		if snaps, err = snapshot.ReadFile(*in); err != nil {
			return err
		}
	}
	if len(snaps) < 2 {
		return fmt.Errorf("store has %d snapshots; need at least 2", len(snaps))
	}
	al, err := snapshot.Align(snaps)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d snapshots, %d common pages\n", al.NumSnapshots(), al.NumPages())

	cfg := quality.Config{
		C:                      *c,
		MinChangeFrac:          *minCh,
		ApplyTrendToDecreasing: true,
		MaxTrend:               *maxTrend,
	}
	est, ranks, err := quality.FromAligned(al, *snapsN, pagerank.Options{Variant: pagerank.VariantPaper}, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "classes: increasing=%d decreasing=%d fluctuating=%d stable=%d (changed>%.0f%%: %d)\n",
		est.Counts[quality.ClassIncreasing], est.Counts[quality.ClassDecreasing],
		est.Counts[quality.ClassFluctuating], est.Counts[quality.ClassStable],
		*minCh*100, est.NumChanged)

	// Top pages by estimated quality.
	order := make([]int, len(est.Q))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return est.Q[order[a]] > est.Q[order[b]] })
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
		future := ranks[len(ranks)-1]
		var errsQ, errsPR []float64
		for i := range est.Q {
			if !est.Changed[i] || future[i] == 0 {
				continue
			}
			eq, errQ := metrics.RelativeError(est.Q[i], future[i])
			ep, errP := metrics.RelativeError(cur[i], future[i])
			if errQ != nil || errP != nil {
				continue // zero truth; already filtered above, but stay safe
			}
			errsQ = append(errsQ, eq)
			errsPR = append(errsPR, ep)
		}
		if len(errsQ) > 0 {
			sq, err := metrics.Summarize(errsQ)
			if err != nil {
				return err
			}
			sp, err := metrics.Summarize(errsPR)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "\nprediction of %s over %d changed pages:\n",
				al.Labels[len(ranks)-1], len(errsQ))
			fmt.Fprintf(out, "  avg rel. error  Q(p): %.3f   PR(now): %.3f\n", sq.Mean, sp.Mean)
			fmt.Fprintf(out, "  median          Q(p): %.3f   PR(now): %.3f\n", sq.Median, sp.Median)
		}
	}
	return nil
}
