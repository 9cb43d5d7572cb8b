package snapshot

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"pagequality/internal/graph"
	"pagequality/internal/pagerank"
	"pagequality/internal/par"
)

// Aligned is a series of snapshots restricted to the pages present in
// every snapshot, with one consistent NodeID space: node i refers to
// URLs[i] in every Graphs[k]. This mirrors §8.1 of the paper, where the
// 2.7 M pages common to all four crawls form the analysis subgraph.
type Aligned struct {
	// URLs[i] is the address of node i in every aligned graph.
	URLs []string
	// Times[k] is the crawl time of snapshot k.
	Times []float64
	// Labels[k] names snapshot k.
	Labels []string
	// Graphs[k] is snapshot k's subgraph induced by the common pages.
	Graphs []*graph.Graph

	// frozen caches one CSR per aligned graph so PageRankSeries and
	// InDegreeSeries (and repeated calls to either) stop re-freezing the
	// same immutable graphs. Built lazily; Aligned must not be copied
	// after first use.
	frozenOnce sync.Once
	frozen     []*graph.CSR
}

// ErrAlign reports snapshots that cannot be aligned.
var ErrAlign = errors.New("snapshot: cannot align")

// Align intersects the snapshots on page URL. Pages with empty URLs are
// ignored (they cannot be matched across crawls). Snapshots must be in
// strictly increasing time order: every downstream consumer of an aligned
// series — EstimateWithRegression most directly — divides by the time gap
// between consecutive snapshots, so two crawls at the same instant can
// never be estimated over and are rejected here, at the mouth of the
// pipeline, rather than deep inside the regression.
func Align(snaps []Snapshot) (*Aligned, error) {
	if len(snaps) < 2 {
		return nil, fmt.Errorf("%w: need >= 2 snapshots, got %d", ErrAlign, len(snaps))
	}
	for k := 1; k < len(snaps); k++ {
		if snaps[k].Time <= snaps[k-1].Time {
			return nil, fmt.Errorf("%w: snapshot times must be strictly increasing (%q at t=%g does not follow %q at t=%g)",
				ErrAlign, snaps[k].Label, snaps[k].Time, snaps[k-1].Label, snaps[k-1].Time)
		}
	}
	// Count URL occurrences across snapshots. The first graph may carry
	// duplicate page URLs (SetPage can alias two nodes to one address);
	// each URL must contribute exactly one aligned node, so dedupe here.
	first := snaps[0].Graph
	common := make([]string, 0, first.NumNodes())
	seen := make(map[string]struct{}, first.NumNodes())
	for i := 0; i < first.NumNodes(); i++ {
		url := first.Page(graph.NodeID(i)).URL
		if url == "" {
			continue
		}
		if _, dup := seen[url]; dup {
			continue
		}
		seen[url] = struct{}{}
		inAll := true
		for k := 1; k < len(snaps); k++ {
			if _, ok := snaps[k].Graph.Lookup(url); !ok {
				inAll = false
				break
			}
		}
		if inAll {
			common = append(common, url)
		}
	}
	if len(common) == 0 {
		return nil, fmt.Errorf("%w: no common pages", ErrAlign)
	}
	sort.Strings(common) // deterministic node numbering
	al := &Aligned{
		URLs:   common,
		Times:  make([]float64, len(snaps)),
		Labels: make([]string, len(snaps)),
		Graphs: make([]*graph.Graph, len(snaps)),
	}
	for k, s := range snaps {
		al.Times[k] = s.Time
		al.Labels[k] = s.Label
		keep := make([]graph.NodeID, len(common))
		for i, url := range common {
			id, ok := s.Graph.Lookup(url)
			if !ok {
				return nil, fmt.Errorf("%w: %q vanished during alignment", ErrAlign, url)
			}
			keep[i] = id
		}
		sub, _ := s.Graph.Subgraph(keep)
		al.Graphs[k] = sub
	}
	return al, nil
}

// NumPages returns the number of common pages.
func (a *Aligned) NumPages() int { return len(a.URLs) }

// NumSnapshots returns the number of snapshots in the series.
func (a *Aligned) NumSnapshots() int { return len(a.Graphs) }

// CSRs returns the frozen CSR view of every aligned graph, building and
// caching them on first use. The aligned graphs are treated as immutable
// once alignment has produced them; callers must not mutate them after
// calling any series method. Safe for concurrent use.
func (a *Aligned) CSRs() []*graph.CSR {
	a.frozenOnce.Do(func() {
		a.frozen = make([]*graph.CSR, len(a.Graphs))
		par.Do(len(a.Graphs), 0, func(k int) {
			a.frozen[k] = graph.Freeze(a.Graphs[k])
		})
	})
	return a.frozen
}

// PageRankSeries computes the PageRank of every common page in every
// snapshot with the given options, returning ranks[k][i] = PR of page i at
// snapshot k. Snapshots are computed concurrently, bounded by
// opts.Workers (GOMAXPROCS when 0): the worker budget is split between
// snapshot-level parallelism and the parallel sweeps inside each
// pagerank.Compute call. Results are identical to the sequential order —
// Compute itself is deterministic for every worker count.
func (a *Aligned) PageRankSeries(opts pagerank.Options) ([][]float64, error) {
	csrs := a.CSRs()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outer := min(workers, len(csrs))
	if outer < 1 {
		outer = 1
	}
	inner := opts
	inner.Workers = max(1, workers/outer)

	ranks := make([][]float64, len(csrs))
	err := par.DoErr(len(csrs), outer, func(k int) error {
		res, err := pagerank.Compute(csrs[k], inner)
		if err != nil {
			return fmt.Errorf("snapshot %s: %w", a.Labels[k], err)
		}
		if !res.Converged {
			return fmt.Errorf("snapshot %s: PageRank did not converge (delta %g after %d iters)",
				a.Labels[k], res.Delta, res.Iterations)
		}
		ranks[k] = res.Rank
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ranks, nil
}

// PageRankSeriesIncremental computes the same series as PageRankSeries
// but chains the snapshots: snapshot 0 is computed from a cold start,
// every later snapshot re-seeds from the previous snapshot's converged
// vector via pagerank.ComputeIncremental over the graph.Diff between the
// two freezes. Aligned snapshots share one node space, so each diff is
// pure edge churn — exactly the regime where the incremental path wins.
// The per-snapshot results agree with PageRankSeries within the
// convergence tolerance (the fixed points are identical; the iterates
// differ below Tol). Snapshots are inherently sequential here, so
// opts.Workers parallelises only the sweeps inside each solve.
func (a *Aligned) PageRankSeriesIncremental(opts pagerank.IncrementalOptions) ([][]float64, error) {
	csrs := a.CSRs()
	ranks := make([][]float64, len(csrs))
	res, err := pagerank.Compute(csrs[0], opts.Options)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", a.Labels[0], err)
	}
	if !res.Converged {
		return nil, fmt.Errorf("snapshot %s: PageRank did not converge (delta %g after %d iters)",
			a.Labels[0], res.Delta, res.Iterations)
	}
	ranks[0] = res.Rank
	for k := 1; k < len(csrs); k++ {
		d, err := graph.Diff(csrs[k-1], csrs[k])
		if err != nil {
			return nil, fmt.Errorf("snapshot %s: %w", a.Labels[k], err)
		}
		inc, err := pagerank.ComputeIncremental(csrs[k], ranks[k-1], d, opts)
		if err != nil {
			return nil, fmt.Errorf("snapshot %s: %w", a.Labels[k], err)
		}
		if !inc.Converged {
			return nil, fmt.Errorf("snapshot %s: incremental PageRank did not converge (delta %g after %d iters)",
				a.Labels[k], inc.Delta, inc.Iterations)
		}
		ranks[k] = inc.Rank
	}
	return ranks, nil
}

// InDegreeSeries returns the in-degree of every common page in every
// snapshot — the footnote-4 alternative popularity measure.
func (a *Aligned) InDegreeSeries() [][]float64 {
	csrs := a.CSRs()
	out := make([][]float64, len(csrs))
	for k, c := range csrs {
		out[k] = pagerank.InDegree(c)
	}
	return out
}
