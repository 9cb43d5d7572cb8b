package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pagequality/internal/graph"
	"pagequality/internal/pagestore"
	"pagequality/internal/snapshot"
	"pagequality/internal/webserver"
)

// buildFixture writes the smallest inputs run accepts: three snapshots of
// a five-page chain and an archive of plain-text bodies under t1..t3. The
// crawled fixture and everything about ranking live in internal/serving.
func buildFixture(t *testing.T) (storePath, archiveDir string) {
	t.Helper()
	dir := t.TempDir()
	storePath, archiveDir = filepath.Join(dir, "web.pqs"), filepath.Join(dir, "pages")
	arch, err := pagestore.Open(archiveDir, pagestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	var snaps []snapshot.Snapshot
	for k, week := range []float64{0, 4, 8} {
		label := fmt.Sprintf("t%d", k+1)
		g := graph.New(5)
		for i := 0; i < 5; i++ {
			url := fmt.Sprintf("http://s.example/p%d", i)
			g.MustAddPage(graph.Page{URL: url, Site: 0})
			if err := arch.Put(label+"/"+url, pagestore.Meta{FetchedAt: week, Status: 200}, []byte("astronomy page "+url)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4+k && i < 5; i++ {
			g.AddLink(graph.NodeID(i), graph.NodeID((i+1)%5))
		}
		snaps = append(snaps, snapshot.Snapshot{Label: label, Time: week, Graph: g})
	}
	if err := snapshot.WriteFile(storePath, snaps); err != nil {
		t.Fatal(err)
	}
	return storePath, archiveDir
}

// lockedBuffer is run's output while its refresh ticker is still writing.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRunFlagValidation pins the CLI contract of the serving flags: zero
// or negative admission values are rejected before any expensive load
// begins.
func TestRunFlagValidation(t *testing.T) {
	listen := func(context.Context, string, http.Handler) error { return nil }
	for _, args := range [][]string{
		{"-store", "web.pqs"}, // -archive is required
		{"-archive", "x", "-cachesize", "-1"},
		{"-archive", "x", "-refresh-interval", "-1s"},
		{"-archive", "x", "-max-inflight", "0"},
		{"-archive", "x", "-max-inflight", "-5"},
		{"-archive", "x", "-max-wait", "-1s"},
	} {
		var sb strings.Builder
		if err := run(context.Background(), args, &sb, listen); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestRunWiresListener(t *testing.T) {
	storePath, archiveDir := buildFixture(t)
	var buf bytes.Buffer
	called := false
	listen := func(_ context.Context, addr string, h http.Handler) error {
		called = true
		if addr != "127.0.0.1:0" || h == nil {
			t.Fatalf("listen(%q, %v)", addr, h)
		}
		return nil
	}
	err := run(context.Background(), []string{"-store", storePath, "-archive", archiveDir, "-addr", "127.0.0.1:0"}, &buf, listen)
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("listener not invoked")
	}
	if !strings.Contains(buf.String(), "indexed 5 documents") {
		t.Fatalf("banner missing:\n%s", buf.String())
	}
}

// TestRunDrainsOnCancel is the shutdown path end to end, through the real
// listener: ctx is cancelled (what SIGTERM does) while a /search is inside
// the handler; the listener closes to new connections, the in-flight
// request still completes with 200, the refresh ticker has stopped, and
// run returns nil.
func TestRunDrainsOnCancel(t *testing.T) {
	storePath, archiveDir := buildFixture(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	entered, release := make(chan struct{}), make(chan struct{})
	listen := func(ctx context.Context, addr string, h http.Handler) error {
		return webserver.ListenAndServe(ctx, addr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/search" {
				close(entered)
				<-release
			}
			h.ServeHTTP(w, r)
		}))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out lockedBuffer
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{"-store", storePath, "-archive", archiveDir, "-addr", addr, "-refresh-interval", "1ms"}, &out, listen)
	}()

	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	get := func(path string) (int, error) {
		req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, "http://"+addr+path, nil)
		if err != nil {
			return 0, err
		}
		resp, err := tr.RoundTrip(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitFor("the listener", func() bool { code, err := get("/healthz"); return err == nil && code == http.StatusOK })
	waitFor("a ticker refresh", func() bool { return strings.Contains(out.String(), "refreshed: generation") })

	status := make(chan int, 1)
	go func() {
		code, err := get("/search?q=astronomy")
		if err != nil {
			t.Error(err)
		}
		status <- code
	}()
	<-entered
	cancel()
	waitFor("the listener to close", func() bool { _, err := get("/healthz"); return err != nil })
	select {
	case err := <-runErr:
		t.Fatalf("run returned %v with a request still in flight", err)
	default:
	}
	close(release)
	if code := <-status; code != http.StatusOK {
		t.Fatalf("in-flight /search finished with %d, want 200", code)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("run after a drain: %v", err)
	}
}
