// Command extract rebuilds a link-graph snapshot from raw documents
// archived by `crawl -archive` — the fetch/parse decoupling of a real
// crawl pipeline: bodies are downloaded once, and the graph can be
// re-extracted at any time (e.g. after improving the link extractor)
// without touching the network.
//
// Usage:
//
//	extract -archive pages/ -label t1 -store web.pqs [-week 0]
//	extract -archive pages/ -stats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pagequality/internal/corpus"
	"pagequality/internal/pagestore"
	"pagequality/internal/snapshot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "extract:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("extract", flag.ContinueOnError)
	var (
		archiveDir = fs.String("archive", "", "pagestore directory holding archived bodies")
		label      = fs.String("label", "", "crawl label whose documents to extract (archive key prefix)")
		store      = fs.String("store", "web.pqs", "snapshot store to append to")
		week       = fs.Float64("week", -1, "snapshot time in weeks (default: archived fetch time)")
		stats      = fs.Bool("stats", false, "print per-label archive stats as CSV and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *archiveDir == "" || (*label == "" && !*stats) {
		return fmt.Errorf("-archive and -label are required")
	}
	arch, err := pagestore.Open(*archiveDir, pagestore.Options{})
	if err != nil {
		return err
	}
	defer arch.Close()

	if *stats {
		ls, err := corpus.ArchiveStats(arch, corpus.Options{})
		if err != nil {
			return err
		}
		return corpus.WriteArchiveStatsCSV(out, ls)
	}

	// One corpus pass re-extracts the label's snapshot, stamped with the
	// archived fetch time unless -week overrides it.
	snap, err := corpus.SnapshotFromArchive(arch, *label)
	if err != nil {
		return fmt.Errorf("%s: %w", *archiveDir, err)
	}
	if *week >= 0 {
		snap.Time = *week
	}
	fmt.Fprintf(out, "extracted %s: %d nodes, %d links\n",
		snap.Label, snap.Graph.NumNodes(), snap.Graph.NumEdges())

	total, err := snapshot.AppendFile(*store, snap)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "appended snapshot %s (week %.1f) to %s (%d snapshots total)\n",
		snap.Label, snap.Time, *store, total)
	return nil
}
