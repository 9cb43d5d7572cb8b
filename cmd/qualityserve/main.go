// Command qualityserve runs the quality-ranked search service of
// internal/serving: it parses flags, builds the service from a snapshot
// store and a page archive, refreshes it on a ticker, and listens until
// SIGINT/SIGTERM — then the ticker stops, in-flight requests drain, and
// the process exits 0. The API (/search, /refresh, /stats, /healthz) and
// the serving design are documented on package serving.
//
// Usage:
//
//	qualityserve -store web.pqs -archive pages/ -label t3 -snaps 3 \
//	             -addr 127.0.0.1:8088 [-cachesize 4096] [-refresh-interval 10m]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pagequality/internal/quality"
	"pagequality/internal/serving"
	"pagequality/internal/webserver"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, webserver.ListenAndServe)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "qualityserve:", err)
		os.Exit(1)
	}
}

// run wires flags to the service; listen is injectable for tests. It
// returns nil after a drain that ctx's cancellation started.
func run(ctx context.Context, args []string, out io.Writer, listen func(context.Context, string, http.Handler) error) error {
	fs := flag.NewFlagSet("qualityserve", flag.ContinueOnError)
	qcfg := quality.CorpusConfig()
	var (
		store       = fs.String("store", "web.pqs", "snapshot store with the crawl series")
		archive     = fs.String("archive", "", "pagestore directory with archived page bodies")
		label       = fs.String("label", "", "archive label of the crawl to index (default: last estimation snapshot)")
		snapsN      = fs.Int("snaps", 3, "number of leading snapshots used for quality estimation")
		c           = fs.Float64("c", qcfg.C, "estimator constant C")
		cap_        = fs.Float64("maxtrend", qcfg.MaxTrend, "trend cap")
		addr        = fs.String("addr", "127.0.0.1:8088", "listen address")
		cacheSize   = fs.Int("cachesize", 4096, "query cache capacity in entries (0 disables caching)")
		refresh     = fs.Duration("refresh-interval", 0, "rebuild the index from the store at this interval (0 disables; /refresh always works)")
		maxInflight = fs.Int("max-inflight", 256, "admission limit on concurrent searches; excess is shed with 503")
		maxWait     = fs.Duration("max-wait", 5*time.Millisecond, "how long a request may wait for an admission slot before being shed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *archive == "" {
		return fmt.Errorf("-archive is required")
	}
	if *cacheSize < 0 {
		return fmt.Errorf("-cachesize must be >= 0, got %d", *cacheSize)
	}
	if *refresh < 0 {
		return fmt.Errorf("-refresh-interval must be >= 0, got %v", *refresh)
	}
	if *maxWait < 0 {
		return fmt.Errorf("-max-wait must be >= 0, got %v", *maxWait)
	}
	qcfg.C, qcfg.MaxTrend = *c, *cap_
	svc, err := serving.New(serving.Config{
		StorePath:   *store,
		ArchiveDir:  *archive,
		Label:       *label,
		Snaps:       *snapsN,
		Quality:     qcfg,
		CacheSize:   *cacheSize,
		MaxInflight: *maxInflight,
		MaxWait:     *maxWait,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "indexed %d documents — serving on http://%s/\n", svc.Generation().NumDocs(), *addr)

	// Shutdown order: the ticker stops — a refresh it is in the middle of
	// completes — and only then is the listener told to drain, so no
	// rebuild competes with the draining requests for the CPU.
	ctx, cancel := context.WithCancel(ctx)
	serveCtx, drain := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		if *refresh > 0 {
			refreshLoop(ctx, svc, *refresh, out)
		}
		<-ctx.Done()
		drain()
	}()
	err = listen(serveCtx, *addr, svc)
	cancel()
	<-stopped
	return err
}

// refreshLoop drives periodic refreshes until ctx ends. Failures are
// reported and the previous generation keeps serving.
func refreshLoop(ctx context.Context, svc *serving.Service, every time.Duration, out io.Writer) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if g, err := svc.Refresh(); err != nil {
				fmt.Fprintf(out, "refresh failed (still serving generation %d): %v\n", svc.Generation().ID, err)
			} else {
				fmt.Fprintf(out, "refreshed: generation %d, %d documents\n", g.ID, g.NumDocs())
			}
		}
	}
}
