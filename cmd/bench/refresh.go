package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"pagequality/internal/loadgen"
)

// serving is what refresh and the search workloads share: the fixture, a
// qualityserve process on it and the in-process twin of its generation.
type serving struct {
	fx  *fixture
	srv *server
	gen *generation
}

func (s *serving) setup(e *env) error {
	var err error
	t0 := time.Now()
	if s.fx, err = buildFixture(e); err != nil {
		return err
	}
	t1 := time.Now()
	if s.srv, err = startServer(e, s.fx); err != nil {
		return err
	}
	e.layer["qualityserve.start_s"] = s.srv.startS
	t2 := time.Now()
	s.gen, err = replayGeneration(s.fx, nil, 0)
	e.logf("set-up: fixture %.2f s (%d pages), server start %.2f s, replay %.2f s",
		t1.Sub(t0).Seconds(), s.fx.pages, t2.Sub(t1).Seconds(), time.Since(t2).Seconds())
	return err
}

func (s *serving) close() { s.srv.stop() }

// refresh measures store -> served generation: one GET /refresh on an
// otherwise idle server re-reads and re-aligns the snapshot store, runs
// incremental PageRank and the estimator, reads the archive back through
// corpus.Extract and builds, freezes and shards the index. It uses the
// pagestore and PageRank the opposite way from ingest and simulate.
type refresh struct {
	serving
	gen0 uint64 // server generation before the first refresh
	n    uint64 // refreshes issued
}

func (w *refresh) setup(e *env) error {
	if err := w.serving.setup(e); err != nil {
		return err
	}
	st, err := w.srv.stats(e.ctx)
	w.gen0 = st.Generation
	return err
}

func (w *refresh) rep(e *env, tr *tracer) (repResult, error) {
	wall, err := w.refreshOnce(e.ctx, tr)
	r := repResult{wall: wall, ops: w.gen.ix.NumDocs(), attempted: 1, opTime: per1000(wall, w.gen.ix.NumDocs())}
	if err != nil {
		e.logf("refresh: %v", err)
		r.failed = 1
	}
	return r, nil
}

// refreshOnce issues one refresh and checks that it bumped the generation
// by exactly one and serves the replay's document count.
func (w *refresh) refreshOnce(ctx context.Context, tr *tracer) (time.Duration, error) {
	sp := tr.begin(nil, "qualityserve.refresh")
	t0 := time.Now()
	status, body, err := w.srv.get(ctx, "/refresh")
	wall := time.Since(t0)
	sp.end()
	w.n++
	if err != nil {
		return wall, err
	}
	if status != http.StatusOK {
		return wall, fmt.Errorf("/refresh: status %d: %s", status, body)
	}
	var got struct {
		Generation uint64 `json:"generation"`
		Documents  int    `json:"documents"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return wall, err
	}
	if want := w.gen0 + w.n; got.Generation != want {
		return wall, fmt.Errorf("/refresh: generation %d, want %d", got.Generation, want)
	}
	if want := w.gen.ix.NumDocs(); got.Documents != want {
		return wall, fmt.Errorf("/refresh: %d documents, the replay indexed %d", got.Documents, want)
	}
	return wall, nil
}

func (w *refresh) check(e *env) error {
	st, err := w.srv.stats(e.ctx)
	if err != nil {
		return err
	}
	if want := w.gen0 + w.n; st.Generation != want {
		return fmt.Errorf("refresh: /stats at generation %d after %d refreshes from %d", st.Generation, w.n, w.gen0)
	}
	return nil
}

func (w *refresh) probe(e *env, tr *tracer) error {
	served := tr.meanMs("qualityserve.refresh") / 1000

	// Replay the server's public-call sequence with a span around each.
	const replays = 3
	var gen *generation
	for i := 0; i < replays; i++ {
		var err error
		if gen, err = replayGeneration(w.fx, tr, 0); err != nil {
			return err
		}
	}
	root := tr.total("qualityserve.loadGeneration")
	replay := root.Total.Seconds() / replays
	mean := func(name string) float64 { return ms(tr.total(name).Total) / replays }
	pagerankMs := mean("pagerank.Compute") + mean("pagerank.ComputeIncremental")
	e.layer["qualityserve.refresh_replay_s"] = replay
	e.layer["qualityserve.refresh_unattributed_share"] = (served - (replay - root.Self.Seconds()/replays)) / served
	e.layer["snapshot.read_ms"] = mean("snapshot.ReadFile")
	e.layer["snapshot.align_ms"] = mean("snapshot.Align")
	e.layer["pagerank.full_ms"] = mean("pagerank.Compute")
	e.layer["pagerank.full_iters"] = float64(tr.counts["pagerank.full_iters"]) / replays
	e.layer["pagerank.incremental_ms"] = mean("pagerank.ComputeIncremental")
	e.layer["pagerank.incremental_iters"] = float64(tr.counts["pagerank.incremental_iters"]) / replays
	e.layer["quality.estimate_ms"] = mean("quality.FromAlignedIncremental") - pagerankMs
	e.layer["quality.mean_q"] = gen.meanQ
	e.layer["corpus.extract_ms"] = mean("corpus.Extract")
	e.layer["search.add_us_per_doc"] = 1000 * mean("search.Add") / float64(gen.ix.NumDocs())
	e.layer["search.freeze_ms"] = mean("search.Freeze")
	e.layer["search.shard_ms"] = mean("search.Shard")

	// corpus.Extract's share of the replay's allocations, and its scaling.
	extract := func(workers int) (time.Duration, float64, error) {
		var err error
		var d time.Duration
		mb := allocMB(func() { d, err = gen.timeExtract(w.fx, workers) })
		return d, mb, err
	}
	one, _, err := extract(1)
	if err != nil {
		return err
	}
	all, mb, err := extract(0)
	if err != nil {
		return err
	}
	e.layer["corpus.extract_alloc_mb"] = mb
	e.layer["corpus.worker_speedup"] = one.Seconds() / all.Seconds()
	if err := probeArchiveReads(e, tr, w.fx.archiveDir); err != nil {
		return err
	}

	if err := w.probeUnderLoad(e); err != nil {
		return err
	}
	e.layer["qualityserve.peak_rss_mb"] = procPeakRSSMB(w.srv.pid())
	e.logf("refresh: served %.3f s, replay %.3f s", served, replay)
	return nil
}

// probeUnderLoad runs a 200 rps hot query stream across one refresh and
// reports the stream's p50 and the refresh's wall.
func (w *refresh) probeUnderLoad(e *env) error {
	wl, err := loadgen.NewWorkload(w.fx.vocab, 1.1, e.seed)
	if err != nil {
		return err
	}
	const rate = 200
	lead := time.Duration(e.sizes.openLoopS * float64(time.Second) / 8)
	// Long enough to span the refresh with a lead-in and a tail.
	streamS := 2*lead.Seconds() + 2*e.layer["qualityserve.refresh_replay_s"]
	var wg sync.WaitGroup
	var rep *loadgen.Report
	var runErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		rep, runErr = loadgen.Run(e.ctx, loadgen.Options{
			BaseURL: w.srv.base, Workload: wl, Rate: rate, Requests: int(rate * streamS), TopK: 10,
			Client: &http.Client{Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}},
			Now:    time.Now, Sleep: time.Sleep,
		})
	}()
	time.Sleep(lead)
	wall, err := w.refreshOnce(e.ctx, nil)
	wg.Wait()
	if err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	if bad := rep.Shed + rep.BadStatus + rep.NetErr; bad > 0 {
		return fmt.Errorf("refresh under load: %d of %d stream requests failed", bad, rep.Requests)
	}
	e.layer["qualityserve.refresh_s_under_load"] = wall.Seconds()
	e.layer["qualityserve.p50_ms_during_refresh"] = ms(rep.P50)
	return nil
}
