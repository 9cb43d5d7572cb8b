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
// cmd/extract and cmd/qualityserve); with -checkpoint file a Ctrl-C stops
// gracefully and the next invocation resumes where it left off.
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
	"time"

	"pagequality/internal/crawler"
	"pagequality/internal/pagestore"
	"pagequality/internal/snapshot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crawl:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
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
		archiveDir  = fs.String("archive", "", "pagestore directory to archive raw bodies into (optional)")
		checkpoint  = fs.String("checkpoint", "", "checkpoint file: resumed if present; written on interrupt (Ctrl-C)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The crawler bounds each page attempt itself; the client-level
	// timeout covers the seed-list fetch below.
	client := &http.Client{Timeout: *timeout}

	var seeds []string
	switch {
	case *seedList != "" && *seed != "":
		return fmt.Errorf("pass either -seeds or -seed, not both")
	case *seedList != "":
		var err error
		seeds, err = crawler.FetchSeeds(context.Background(), client, *seedList)
		if err != nil {
			return err
		}
	case *seed != "":
		seeds = strings.Split(*seed, ",")
	default:
		return fmt.Errorf("one of -seeds or -seed is required")
	}

	// Determine the snapshot identity up front: the archive keys bodies by
	// "<label>/<url>".
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
	if n := len(snaps); n > 0 && wk <= snaps[n-1].Time {
		return fmt.Errorf("snapshot week %g does not follow the last stored snapshot (%g)", wk, snaps[n-1].Time)
	}

	cfg := crawler.Config{
		Seeds:           seeds,
		MaxPages:        *maxPages,
		MaxPagesPerSite: *maxPerSite,
		Concurrency:     *concurrency,
		Client:          client,
		RequestTimeout:  *timeout,
		MaxHostErrors:   *hostErrors,
		Retry: crawler.Retry{
			MaxAttempts: *retries,
			BaseDelay:   *retryBase,
			MaxDelay:    *retryMax,
			Seed:        *retrySeed,
		},
	}
	if *archiveDir != "" {
		if len(lbl) > pagestore.MaxLabelLen {
			return fmt.Errorf("label of %d bytes exceeds the archive's %d", len(lbl), pagestore.MaxLabelLen)
		}
		arch, openErr := pagestore.Open(*archiveDir, pagestore.Options{})
		if openErr != nil {
			return openErr
		}
		// OnFetch runs on every fetcher. A document the archive did not
		// get fails the run, after the snapshot and the checkpoint are
		// written: the snapshot names pages qualityserve would not serve.
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
		meta := pagestore.Meta{FetchedAt: wk, Status: 200}
		cfg.OnFetch = func(u string, body []byte) {
			if err := arch.Put(lbl+"/"+u, meta, body); err != nil {
				failed.Add(1)
				firstErr.CompareAndSwap(nil, &err)
			}
		}
	}

	if *checkpoint != "" {
		resume, err := crawler.LoadCheckpoint(*checkpoint)
		if err != nil {
			return err
		}
		if resume != nil {
			fmt.Fprintf(out, "resuming from %s: %d visited, %d in the frontier\n",
				*checkpoint, len(resume.Visited), len(resume.Frontier))
			cfg.Resume = resume
		}
		// Ctrl-C triggers a graceful stop with a saved checkpoint.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		defer signal.Stop(sig)
		stop := make(chan struct{})
		go func() {
			if _, ok := <-sig; ok {
				fmt.Fprintln(out, "interrupt received: finishing in-flight fetches...")
				close(stop)
			}
		}()
		cfg.Interrupt = stop
	}

	fmt.Fprintf(out, "crawling from %d seed(s)...\n", len(seeds))
	res, err := crawler.Crawl(cfg)
	if err != nil {
		return err
	}
	if res.Interrupted {
		if *checkpoint == "" {
			return fmt.Errorf("crawl interrupted but no -checkpoint path to save to")
		}
		if err := res.Checkpoint.Save(*checkpoint); err != nil {
			return err
		}
		fmt.Fprintf(out, "interrupted after %d pages; checkpoint saved to %s (re-run to resume)\n",
			res.Stats.Fetched, *checkpoint)
		return nil
	}
	switch {
	case res.Checkpoint != nil && *checkpoint != "":
		// Completed, but some URLs failed transiently: save them so a
		// re-run retries exactly those.
		if err := res.Checkpoint.Save(*checkpoint); err != nil {
			return err
		}
		fmt.Fprintf(out, "%d URLs failed transiently; checkpoint saved to %s (re-run to retry them)\n",
			len(res.Checkpoint.Frontier), *checkpoint)
	case res.Checkpoint != nil:
		fmt.Fprintf(out, "warning: %d URLs failed transiently and were dropped (pass -checkpoint to keep them)\n",
			len(res.Checkpoint.Frontier))
	case *checkpoint != "":
		// Completed cleanly: a stale checkpoint would resurrect the old
		// frontier.
		if err := os.Remove(*checkpoint); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	fmt.Fprintf(out, "fetched %d pages (%d errors, %d retries, %d timeouts, %d rate-limited, %d hosts degraded, %d skipped by caps): %d nodes, %d links\n",
		res.Stats.Fetched, res.Stats.Errors, res.Stats.Retries, res.Stats.Timeouts,
		res.Stats.RateLimited, res.Stats.HostsDegraded, res.Stats.SkippedCaps,
		res.Graph.NumNodes(), res.Graph.NumEdges())

	snaps = append(snaps, snapshot.Snapshot{Label: lbl, Time: wk, Graph: res.Graph})
	if err := snapshot.WriteFile(*store, snaps); err != nil {
		return err
	}
	fmt.Fprintf(out, "appended snapshot %s (week %.1f) to %s (%d snapshots total)\n",
		lbl, wk, *store, len(snaps))
	return nil
}
