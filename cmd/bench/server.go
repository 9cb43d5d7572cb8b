package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"time"
)

// buildServer compiles qualityserve into the run's temp dir. Its cost is
// bench.build_s, which runWorkload takes out of setup_s.
func buildServer(e *env) error {
	bin := filepath.Join(e.tmp, "qualityserve")
	t0 := time.Now()
	cmd := exec.CommandContext(e.ctx, "go", "build", "-o", bin, "pagequality/cmd/qualityserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build qualityserve: %w\n%s", err, out)
	}
	e.layer["bench.build_s"] = time.Since(t0).Seconds()
	abs, err := filepath.Abs(bin)
	if err != nil {
		return err
	}
	e.bin = abs
	return nil
}

// server is one running qualityserve process.
type server struct {
	cmd    *exec.Cmd
	cancel context.CancelFunc
	exited chan struct{} // closed once the process has been reaped
	addr   string        // 127.0.0.1:port
	base   string        // http://127.0.0.1:port
	client *http.Client
	startS float64 // exec to the first 200 from /healthz
}

// startServer runs the binary with default flags on the fixture and waits
// until it serves. The client is for the requests around the load
// (/healthz, /stats, /refresh, the sampled checks); the load itself goes
// through loadConns.
func startServer(e *env, fx *fixture) (*server, error) {
	if err := buildServer(e); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(e.ctx)
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.CommandContext(ctx, e.bin, "-store", fx.storePath, "-archive", fx.archiveDir, "-addr", addr)
	cmd.Stdout = io.Discard
	cmd.Stderr = e.errw
	s := &server{
		cmd: cmd, cancel: cancel, exited: make(chan struct{}), addr: addr, base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{}},
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		cancel()
		return nil, err
	}
	go func() {
		// The exit status says nothing: stop kills the process on purpose.
		_ = cmd.Wait() //pqlint:allow droppederr killed on purpose, status carries no information
		close(s.exited)
	}()
	for {
		if status, _, err := s.get(ctx, "/healthz"); err == nil && status == http.StatusOK {
			break
		}
		select {
		case <-s.exited:
			cancel()
			return nil, fmt.Errorf("qualityserve exited during start-up")
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Since(t0) > 60*time.Second {
			s.stop()
			return nil, fmt.Errorf("qualityserve not healthy after 60 s")
		}
	}
	s.startS = time.Since(t0).Seconds()
	return s, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// stop kills the process and waits until it has ended.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.cancel()
	<-s.exited
	s.client.CloseIdleConnections()
}

// get issues one GET and returns the status and the whole body.
func (s *server) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// serverStats is the part of /stats the benchmark reads.
type serverStats struct {
	Generation  uint64 `json:"generation"`
	Documents   int    `json:"documents"`
	Searches    uint64 `json:"searches"`
	Admitted    uint64 `json:"admitted"`
	Shed        uint64 `json:"shed"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

func (s *server) stats(ctx context.Context) (serverStats, error) {
	var st serverStats
	status, body, err := s.get(ctx, "/stats")
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", status)
	}
	return st, json.Unmarshal(body, &st)
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// usage snapshots the counters the per-layer ratios are deltas of.
type usage struct {
	stats     serverStats
	serverCPU time.Duration
	clientCPU time.Duration
}

func (s *server) usage(ctx context.Context) (usage, error) {
	st, err := s.stats(ctx)
	return usage{stats: st, serverCPU: procCPU(s.pid()), clientCPU: selfCPU()}, err
}
