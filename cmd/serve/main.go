// Command serve exposes one snapshot from a store file as a browsable
// HTML site (the webserver substrate), closing the loop with cmd/crawl:
// a snapshot written by websim can be served, re-crawled and re-stored.
//
// Usage:
//
//	serve -in web.pqs [-snapshot t3] [-addr 127.0.0.1:8080]
//	serve -in web.pqs -fault-error 0.2 -fault-ratelimit 0.1 -fault-seed 7
//
// The -fault-* flags wrap the site in the deterministic fault-injection
// middleware, turning it into a hostile-server testbed for crawler
// resilience work.
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

	"pagequality/internal/snapshot"
	"pagequality/internal/webserver"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, webserver.ListenAndServe)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// run wires flags to the handler; listen is injectable for tests. ctx's
// cancellation (SIGINT/SIGTERM) drains the listener and run returns nil.
func run(ctx context.Context, args []string, out io.Writer, listen func(ctx context.Context, addr string, h http.Handler) error) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		in             = fs.String("in", "web.pqs", "snapshot store path")
		label          = fs.String("snapshot", "", "snapshot label (default: last)")
		addr           = fs.String("addr", "127.0.0.1:8080", "listen address")
		faultError     = fs.Float64("fault-error", 0, "probability of an injected 500 per request")
		faultRateLimit = fs.Float64("fault-ratelimit", 0, "probability of an injected 429 (Retry-After: 1) per request")
		faultTimeout   = fs.Float64("fault-timeout", 0, "probability of stalling a request until the client gives up")
		faultLatency   = fs.Duration("fault-latency", 0, "fixed delay added to every non-faulted response")
		faultSeed      = fs.Int64("fault-seed", 1, "seed of the deterministic fault decisions")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, info, err := newHandler(*in, *label)
	if err != nil {
		return err
	}
	fc := webserver.FaultConfig{
		ErrorRate:     *faultError,
		RateLimitRate: *faultRateLimit,
		TimeoutRate:   *faultTimeout,
		Latency:       *faultLatency,
		Seed:          *faultSeed,
	}
	if fc.Active() {
		wrapped, err := webserver.WithFaults(h, fc)
		if err != nil {
			return err
		}
		h = wrapped
		info += fmt.Sprintf(" [faults: err=%g ratelimit=%g timeout=%g latency=%v seed=%d]",
			fc.ErrorRate, fc.RateLimitRate, fc.TimeoutRate, fc.Latency, fc.Seed)
	}
	fmt.Fprintf(out, "serving %s on http://%s/ (seeds at /seeds.txt)\n", info, *addr)
	return listen(ctx, *addr, h)
}

// newHandler loads the requested snapshot and builds its site handler.
func newHandler(storePath, label string) (http.Handler, string, error) {
	snaps, err := snapshot.ReadFile(storePath)
	if err != nil {
		return nil, "", err
	}
	if len(snaps) == 0 {
		return nil, "", fmt.Errorf("store %s is empty", storePath)
	}
	snap := snaps[len(snaps)-1]
	if label != "" {
		found := false
		for _, s := range snaps {
			if s.Label == label {
				snap, found = s, true
				break
			}
		}
		if !found {
			return nil, "", fmt.Errorf("no snapshot labelled %q in %s", label, storePath)
		}
	}
	srv, err := webserver.New(snap.Graph, nil)
	if err != nil {
		return nil, "", err
	}
	info := fmt.Sprintf("snapshot %s (week %.1f, %d pages, %d links)",
		snap.Label, snap.Time, snap.Graph.NumNodes(), snap.Graph.NumEdges())
	return srv, info, nil
}
