package webserver

import (
	"context"
	"net/http"
	"time"
)

// drainTimeout bounds how long a shutdown waits for in-flight requests:
// well above the slowest handler either command serves (qualityserve's
// /refresh, under a second on the benchmark's store) and below the grace
// period supervisors commonly give before SIGKILL.
const drainTimeout = 10 * time.Second

// ListenAndServe serves h on addr behind an http.Server with header, read,
// write and idle timeouts, so a slow or stalled client cannot wedge a
// connection (and its goroutine) indefinitely. It is the one production
// listener configuration, shared by cmd/serve and cmd/qualityserve.
//
// When ctx ends the listener closes and in-flight requests get up to
// drainTimeout to complete; a clean drain returns nil.
func ListenAndServe(ctx context.Context, addr string, h http.Handler) error {
	srv := newHTTPServer(addr, h)
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe() }()
	select {
	case err := <-served:
		return err // never bound, or failed while accepting
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := srv.Shutdown(drainCtx)
	<-served // http.ErrServerClosed, as Shutdown makes it
	return err
}

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}
