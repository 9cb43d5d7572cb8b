package main

import (
	"fmt"
	"hash/crc32"
	"time"

	"pagequality/internal/graph"
	"pagequality/internal/pagerank"
	"pagequality/internal/ranking"
	"pagequality/internal/search"
	"pagequality/internal/webcorpus"
)

// simulate measures the paper's feedback loop: the corpus evolves while a
// partially randomized ranking (Pandey et al.) feeds search visits back
// into the link graph. One repetition is webcorpus.New plus simWeeks
// weeks; the weekly refreeze (index build, PageRank, live quality) and
// ranking.Rank do nearly all the work, and the crawler, the pagestore and
// qualityserve do none.
type simulate struct {
	last  simOutcome // the latest repetition's final state
	first simOutcome // the first repetition's, every later one must equal
	diffs int        // repetitions that ended elsewhere
	sim   *webcorpus.Sim
}

// simOutcome identifies the corpus a repetition ended on.
type simOutcome struct {
	pages, links int
	graphCRC     uint32
}

func (w *simulate) config(e *env, workers int, policy ranking.Policy) webcorpus.Config {
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = e.sizes.simSites
	cfg.Seed = e.seed
	cfg.Workers = workers
	if policy != nil {
		cfg.Search = webcorpus.SearchConfig{SessionsPerWeek: e.sizes.simSessions, TopK: 10, Policy: policy}
	}
	return cfg
}

func (w *simulate) setup(*env) error { return nil }

// tracedPolicy wraps the ranking policy with one span per Rank call.
type tracedPolicy struct {
	ranking.Policy
	tr     *tracer
	parent *liveSpan // the week being simulated
}

func (p *tracedPolicy) Rank(ctx *ranking.Context, query string, k int) ([]int, error) {
	sp := p.tr.begin(p.parent, "ranking.Rank")
	docs, err := p.Policy.Rank(ctx, query, k)
	sp.end()
	return docs, err
}

func (w *simulate) rep(e *env, tr *tracer) (repResult, error) {
	var policy ranking.Policy = ranking.Randomized{Epsilon: 0.2}
	var traced *tracedPolicy
	if tr != nil {
		traced = &tracedPolicy{Policy: policy, tr: tr}
		policy = traced
	}
	t0 := time.Now()
	sp := tr.begin(nil, "webcorpus.New")
	sim, err := webcorpus.New(w.config(e, 0, policy))
	sp.end()
	if err != nil {
		return repResult{}, err
	}
	// One AdvanceTo per week: the tick count to a horizon does not depend
	// on how it is split, and the traced run gets a span per week.
	for week := 1; week <= e.sizes.simWeeks; week++ {
		sp := tr.begin(nil, "webcorpus.AdvanceTo")
		if traced != nil {
			traced.parent = sp
		}
		sim.AdvanceTo(float64(week))
		sp.end()
	}
	wall := time.Since(t0)

	sessions, _, _ := sim.SearchStats()
	w.sim = sim
	w.last = simOutcome{sim.NumPages(), sim.NumLinks(), crc32.ChecksumIEEE(sim.Graph().AppendBinary(nil))}
	if w.first == (simOutcome{}) {
		w.first = w.last
	} else if w.last != w.first {
		w.diffs++
	}
	return repResult{wall: wall, ops: int(sessions), attempted: int(sessions), opTime: wall}, nil
}

func (w *simulate) check(*env) error {
	if w.diffs > 0 {
		return fmt.Errorf("simulate: %d repetitions ended on another corpus than the first (%+v)", w.diffs, w.first)
	}
	if w.last.pages == 0 || w.last.links == 0 {
		return fmt.Errorf("simulate: empty corpus %+v", w.last)
	}
	return nil
}

func (w *simulate) probe(e *env, tr *tracer) error {
	weeks := tr.total("webcorpus.AdvanceTo")
	rank := tr.total("ranking.Rank")
	ticks := float64(weeks.Count) / webcorpus.DefaultConfig().DT
	e.layer["webcorpus.tick_ms"] = ms(weeks.Self) / ticks
	e.layer["webcorpus.pages_final"] = float64(w.last.pages)
	e.layer["webcorpus.links_final"] = float64(w.last.links)
	e.layer["ranking.rank_calls"] = float64(rank.Count) / float64(tr.total("webcorpus.New").Count)
	e.layer["ranking.rank_us"] = tr.meanUs("ranking.Rank")

	// The refreeze's own calls, replayed on the final corpus.
	sp := tr.begin(nil, "webcorpus.AllTexts")
	texts := w.sim.AllTexts(webcorpus.TextOptions{})
	e.layer["webcorpus.texts_ms"] = ms(sp.end())
	probeIndexBuild(e, tr, texts)
	csr := graph.Freeze(w.sim.Graph())
	if err := probePageRank(e, tr, csr); err != nil {
		return err
	}

	// Worker scaling of the tick kernel alone: search channel off.
	plain := func(workers int) (time.Duration, error) {
		var err error
		d := timeIt(func() {
			var sim *webcorpus.Sim
			if sim, err = webcorpus.New(w.config(e, workers, nil)); err == nil {
				sim.AdvanceTo(float64(e.sizes.simWeeks))
			}
		})
		return d, err
	}
	one, err := plain(1)
	if err != nil {
		return err
	}
	all, err := plain(0)
	if err != nil {
		return err
	}
	e.layer["webcorpus.worker_speedup"] = one.Seconds() / all.Seconds()
	return nil
}

func (w *simulate) close() {}

// probeIndexBuild times the index build the refreeze and a refresh share.
func probeIndexBuild(e *env, tr *tracer, texts []string) {
	ix := search.NewIndex()
	sp := tr.begin(nil, "search.Add")
	ix.AddAll(texts)
	e.layer["search.add_us_per_doc"] = us(sp.end()) / float64(len(texts))
	sp = tr.begin(nil, "search.Freeze")
	ix.Freeze()
	e.layer["search.freeze_ms"] = ms(sp.end())
}

// probePageRank times the full solve at default and at one worker.
func probePageRank(e *env, tr *tracer, csr *graph.CSR) error {
	opts := pagerank.Options{Variant: pagerank.VariantPaper}
	sp := tr.begin(nil, "pagerank.Compute")
	res, err := pagerank.Compute(csr, opts)
	all := sp.end()
	if err != nil {
		return err
	}
	e.layer["pagerank.full_ms"] = ms(all)
	e.layer["pagerank.full_iters"] = float64(res.Iterations)
	opts.Workers = 1
	one := timeIt(func() { _, err = pagerank.Compute(csr, opts) })
	if err != nil {
		return err
	}
	e.layer["pagerank.worker_speedup"] = one.Seconds() / all.Seconds()
	return nil
}
