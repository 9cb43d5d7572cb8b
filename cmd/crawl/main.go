// Command crawl downloads a Web site over HTTP — following links from the
// given seeds until no new pages are reachable or the page caps are hit,
// exactly as the paper's crawler did (§8.1) — and appends the
// reconstructed link graph as one snapshot to a store file. Invoke it
// repeatedly over time to build the multi-snapshot series the quality
// estimator consumes.
//
// Usage:
//
//	crawl -seeds http://host/seeds.txt -store web.pqs -label t1 -week 0
//	crawl -seed  http://host/          -store web.pqs -label t2 -week 4
//
// With -archive dir the raw bodies are kept in a pagestore (for
// cmd/extract and cmd/qualityserve). SIGINT (Ctrl-C) or SIGTERM stops the
// crawl once the in-flight fetches finish and appends no snapshot. The
// archive is the crawl's one record of progress: re-running the same
// command resumes from the documents already archived under the label
// and appends the whole snapshot; without -archive an interrupt keeps
// nothing.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"pagequality/internal/corpus"
	"pagequality/internal/crawler"
	"pagequality/internal/pagestore"
	"pagequality/internal/snapshot"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawl:", err)
		os.Exit(1)
	}
}

// run crawls as the flags say; ctx's cancellation (SIGINT/SIGTERM) stops
// the crawl gracefully.
func run(ctx context.Context, args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("crawl", flag.ContinueOnError)
	var (
		seedList    = fs.String("seeds", "", "URL of a newline-separated seed list")
		seed        = fs.String("seed", "", "single seed URL (alternative to -seeds)")
		store       = fs.String("store", "web.pqs", "snapshot store to append to")
		label       = fs.String("label", "", "snapshot label (default tN)")
		week        = fs.Float64("week", -1, "snapshot time in weeks (default: count of prior snapshots * 4)")
		maxPages    = fs.Int("maxpages", 0, "total page cap (0 = unlimited)")
		maxPerSite  = fs.Int("maxpersite", 200000, "per-site page cap (paper: 200,000)")
		concurrency = fs.Int("concurrency", 8, "parallel fetchers")
		timeout     = fs.Duration("timeout", 30*time.Second, "per-request timeout (0 = none)")
		retries     = fs.Int("retries", 3, "attempts per URL on transient failures (1 = no retries)")
		retryBase   = fs.Duration("retry-base", 100*time.Millisecond, "backoff before the first retry (doubles per attempt)")
		retryMax    = fs.Duration("retry-max", 5*time.Second, "backoff ceiling, Retry-After included")
		retrySeed   = fs.Int64("retry-seed", 1, "seed of the deterministic backoff jitter")
		hostErrors  = fs.Int("host-errors", 0, "per-host error budget before the host is skipped (0 = unlimited)")
		archiveDir  = fs.String("archive", "", "pagestore directory to archive raw bodies into, and to resume an interrupted crawl of the label from (optional)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The crawler bounds each page attempt itself; the client-level
	// timeout covers the seed-list fetch below.
	client := &http.Client{Timeout: *timeout}

	// Determine the snapshot identity before any fetch: the archive keys
	// bodies by label and URL (corpus.ArchiveKey).
	var snaps []snapshot.Snapshot
	if _, err := os.Stat(*store); err == nil {
		snaps, err = snapshot.ReadFile(*store)
		if err != nil {
			return fmt.Errorf("existing store: %w", err)
		}
	}
	lbl := *label
	if lbl == "" {
		lbl = fmt.Sprintf("t%d", len(snaps)+1)
	}
	wk := *week
	if wk < 0 {
		wk = float64(len(snaps)) * 4
	}
	if err := snapshot.CheckAppend(snaps, lbl, wk); err != nil {
		return fmt.Errorf("%s: %w", *store, err)
	}
	if err := corpus.CheckLabel(lbl); err != nil && *archiveDir != "" {
		return err
	}

	var seeds []string
	switch {
	case *seedList != "" && *seed != "":
		return fmt.Errorf("pass either -seeds or -seed, not both")
	case *seedList != "":
		var err error
		seeds, err = crawler.FetchSeeds(ctx, client, *seedList)
		if err != nil {
			return err
		}
	case *seed != "":
		seeds = strings.Split(*seed, ",")
	default:
		return fmt.Errorf("one of -seeds or -seed is required")
	}

	cfg := crawler.Config{
		Seeds:           seeds,
		MaxPages:        *maxPages,
		MaxPagesPerSite: *maxPerSite,
		Concurrency:     *concurrency,
		Client:          client,
		RequestTimeout:  *timeout,
		Interrupt:       ctx.Done(),
		MaxHostErrors:   *hostErrors,
		Retry: crawler.Retry{
			MaxAttempts: *retries,
			BaseDelay:   *retryBase,
			MaxDelay:    *retryMax,
			Seed:        *retrySeed,
		},
	}
	if *archiveDir != "" {
		arch, openErr := pagestore.Open(*archiveDir, pagestore.Options{})
		if openErr != nil {
			return openErr
		}
		// OnFetch runs on every fetcher. A document the archive did not
		// get fails the run, after the snapshot is written: the snapshot
		// names pages qualityserve would not serve.
		var failed atomic.Int64
		var firstErr atomic.Pointer[error]
		defer func() {
			cerr := arch.Close()
			if n := failed.Load(); n > 0 {
				cerr = fmt.Errorf("%d documents could not be archived (first: %v)", n, *firstErr.Load())
			}
			if err == nil {
				err = cerr // run's result
			}
		}()
		// The label is not stored yet, so what the archive holds under it
		// is an interrupted run of this crawl: resume from it.
		docs, at, readErr := corpus.LabelDocuments(arch, lbl)
		if readErr != nil {
			return readErr
		}
		if len(docs) > 0 {
			if at != wk { //pqlint:allow floateq the archive stores the week the flag gave, bit for bit
				return fmt.Errorf("label %s was archived at week %g, not %g", lbl, at, wk)
			}
			fmt.Fprintf(out, "resuming %s from %d archived documents\n", lbl, len(docs))
			cfg.Archived = docs
		}
		meta := pagestore.Meta{FetchedAt: wk, Status: 200}
		cfg.OnFetch = func(u string, body []byte) {
			if err := arch.Put(corpus.ArchiveKey(lbl, u), meta, body); err != nil {
				failed.Add(1)
				firstErr.CompareAndSwap(nil, &err)
			}
		}
	}

	fmt.Fprintf(out, "crawling from %d seed(s)...\n", len(seeds))
	res, err := crawler.Crawl(cfg)
	if err != nil {
		return err
	}
	if res.Interrupted {
		if *archiveDir == "" {
			return fmt.Errorf("crawl interrupted after %d pages; nothing was kept (with -archive a re-run resumes)", res.Stats.Fetched)
		}
		fmt.Fprintf(out, "interrupted after %d pages; %s holds %d documents of %s (re-run to resume)\n",
			res.Stats.Fetched, *archiveDir, len(cfg.Archived)+res.Stats.Fetched, lbl)
		return nil
	}
	fmt.Fprintf(out, "fetched %d pages (%d errors, %d retries, %d timeouts, %d rate-limited, %d hosts degraded, %d skipped by caps, %d skipped by robots.txt): %d nodes, %d links\n",
		res.Stats.Fetched, res.Stats.Errors, res.Stats.Retries, res.Stats.Timeouts,
		res.Stats.RateLimited, res.Stats.HostsDegraded, res.Stats.SkippedCaps, res.Stats.SkippedRobots,
		res.Graph.NumNodes(), res.Graph.NumEdges())

	total, err := snapshot.AppendFile(*store, snapshot.Snapshot{Label: lbl, Time: wk, Graph: res.Graph})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "appended snapshot %s (week %.1f) to %s (%d snapshots total)\n",
		lbl, wk, *store, total)
	return nil
}
