// Command pagerank ranks the pages of one snapshot from a store file by
// PageRank, HITS authority, or raw in-degree, printing the top-k table.
//
// Usage:
//
//	pagerank -in web.pqs [-snapshot t3] [-metric pagerank|hits|indegree] \
//	         [-top 20] [-variant paper|standard] [-jump 0.15]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pagequality/internal/graph"
	"pagequality/internal/metrics"
	"pagequality/internal/pagerank"
	"pagequality/internal/snapshot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pagerank:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pagerank", flag.ContinueOnError)
	var (
		in      = fs.String("in", "web.pqs", "snapshot store path")
		label   = fs.String("snapshot", "", "snapshot label (default: last)")
		metric  = fs.String("metric", "pagerank", "pagerank | hits | indegree")
		top     = fs.Int("top", 20, "number of pages to print")
		variant = fs.String("variant", "paper", "paper | standard normalisation")
		jump    = fs.Float64("jump", 0.15, "random-jump probability d")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	snaps, err := snapshot.ReadFile(*in)
	if err != nil {
		return err
	}
	snap, err := snapshot.Select(snaps, *label)
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	c := graph.Freeze(snap.Graph)
	fmt.Fprintf(out, "snapshot %s (week %.1f): %d pages, %d links\n",
		snap.Label, snap.Time, c.NumNodes(), c.NumEdges())

	var score []float64
	switch *metric {
	case "pagerank":
		v := pagerank.VariantPaper
		if *variant == "standard" {
			v = pagerank.VariantStandard
		} else if *variant != "paper" {
			return fmt.Errorf("unknown variant %q", *variant)
		}
		res, err := pagerank.Compute(c, pagerank.Options{Variant: v, Jump: *jump})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "PageRank %s (delta %.2g)\n", convergedIn(res.Converged, res.Iterations), res.Delta)
		score = res.Rank
	case "hits":
		res := pagerank.HITS(c)
		fmt.Fprintf(out, "HITS %s; ranking by authority\n", convergedIn(res.Converged, res.Iterations))
		score = res.Authorities
	case "indegree":
		score = pagerank.InDegree(c)
	default:
		return fmt.Errorf("unknown metric %q", *metric)
	}

	order := metrics.BestFirst(score)
	k := *top
	if k > len(order) {
		k = len(order)
	}
	fmt.Fprintf(out, "%4s  %12s  %8s  %8s  %s\n", "rank", "score", "in-deg", "out-deg", "url")
	for i := 0; i < k; i++ {
		id := graph.NodeID(order[i])
		pg := snap.Graph.Page(id)
		url := pg.URL
		if url == "" {
			url = fmt.Sprintf("(page %d)", id)
		}
		fmt.Fprintf(out, "%4d  %12.5f  %8d  %8d  %s\n",
			i+1, score[id], c.InDegree(id), c.OutDegree(id), url)
	}
	return nil
}

// convergedIn says how many iterations a solver ran and whether it
// converged in them.
func convergedIn(converged bool, iters int) string {
	if converged {
		return fmt.Sprintf("converged in %d iterations", iters)
	}
	return fmt.Sprintf("did not converge in %d iterations", iters)
}
