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
	"sort"

	"pagequality/internal/graph"
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
	if len(snaps) == 0 {
		return fmt.Errorf("store %s is empty", *in)
	}
	snap := snaps[len(snaps)-1]
	if *label != "" {
		found := false
		for _, s := range snaps {
			if s.Label == *label {
				snap, found = s, true
				break
			}
		}
		if !found {
			return fmt.Errorf("no snapshot labelled %q in %s", *label, *in)
		}
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
		fmt.Fprintf(out, "PageRank converged in %d iterations (delta %.2g)\n",
			res.Iterations, res.Delta)
		score = res.Rank
	case "hits":
		res := pagerank.HITS(c)
		fmt.Fprintf(out, "HITS converged in %d iterations; ranking by authority\n", res.Iterations)
		score = res.Authorities
	case "indegree":
		score = pagerank.InDegree(c)
	default:
		return fmt.Errorf("unknown metric %q", *metric)
	}

	order := argsortDesc(score)
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

// argsortDesc returns indices sorted by descending score (stable on ties).
//
//pqlint:allow floateq exact-tie detection so equal scores fall through to the index tie-break
func argsortDesc(score []float64) []int {
	idx := make([]int, len(score))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if score[idx[a]] != score[idx[b]] {
			return score[idx[a]] > score[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}
