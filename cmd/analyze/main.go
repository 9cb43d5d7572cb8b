// Command analyze reports the structural properties of one snapshot —
// bow-tie decomposition (Broder et al. [6]), degree distributions and the
// power-law exponent (Barabási–Albert [3, 4]) — the checks the paper's
// related work uses to characterise Web graphs.
//
// Usage:
//
//	analyze -in web.pqs [-snapshot t3]
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"

	"pagequality/internal/graph"
	"pagequality/internal/snapshot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	var (
		in    = fs.String("in", "web.pqs", "snapshot store path")
		label = fs.String("snapshot", "", "snapshot label (default: last)")
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
	if c.NumNodes() == 0 {
		return nil
	}

	// Bow-tie decomposition.
	bt := graph.BowTie(c)
	fmt.Fprintln(out, "\nbow-tie decomposition (Broder et al.):")
	order := []graph.Region{
		graph.RegionCore, graph.RegionIn, graph.RegionOut,
		graph.RegionTendril, graph.RegionDisconnected,
	}
	for _, r := range order {
		n := bt.Counts[r]
		fmt.Fprintf(out, "  %-13s %7d  (%.1f%%)\n", r, n, 100*float64(n)/float64(c.NumNodes()))
	}

	// Strongly connected components.
	comp, ncomp := graph.SCC(c)
	sizes := make(map[int]int)
	for _, ci := range comp {
		sizes[ci]++
	}
	largest := 0
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
	}
	fmt.Fprintf(out, "\nstrongly connected components: %d (largest %d)\n", ncomp, largest)

	// Degree statistics and power-law fit.
	for _, dir := range []struct {
		name string
		in   bool
	}{{"in-degree", true}, {"out-degree", false}} {
		degs := graph.Degrees(c, dir.in)
		sort.Ints(degs)
		sum := 0
		for _, d := range degs {
			sum += d
		}
		mean := float64(sum) / float64(len(degs))
		median := degs[len(degs)/2]
		maxDeg := degs[len(degs)-1]
		alpha, tail := graph.PowerLawAlpha(degs, max(2, median))
		fmt.Fprintf(out, "\n%s: mean %.2f, median %d, max %d\n", dir.name, mean, median, maxDeg)
		if tail > 0 {
			fmt.Fprintf(out, "  power-law tail (k >= %d): alpha = %.2f over %d pages\n",
				max(2, median), alpha, tail)
		}
	}

	// Dangling pages matter to PageRank's policy choice.
	fmt.Fprintf(out, "\ndangling pages (no out-links): %d\n", len(c.Danglings()))

	// Reciprocity and clustering, the remaining standard Web statistics.
	fmt.Fprintf(out, "edge reciprocity: %.3f\n", graph.Reciprocity(c))
	rng := rand.New(rand.NewSource(1))
	samples := 0
	if c.NumNodes() > 5000 {
		samples = 2000
	}
	fmt.Fprintf(out, "avg clustering coefficient: %.3f\n",
		graph.ClusteringCoefficient(c, samples, rng))
	return nil
}
