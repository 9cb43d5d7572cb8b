package webserver

import (
	"net/http"
	"time"
)

// ListenAndServe serves h on addr behind an http.Server with header, read,
// write and idle timeouts, so a slow or stalled client cannot wedge a
// connection (and its goroutine) indefinitely. It is the one production
// listener configuration, shared by cmd/serve and cmd/qualityserve.
func ListenAndServe(addr string, h http.Handler) error {
	return newHTTPServer(addr, h).ListenAndServe()
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
