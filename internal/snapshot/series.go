package snapshot

import (
	"errors"
	"fmt"
	"sort"

	"pagequality/internal/graph"
	"pagequality/internal/pagerank"
	"pagequality/internal/par"
)

// Aligned is a series of snapshots restricted to the pages present in
// every snapshot, with one consistent NodeID space: node i refers to
// URLs[i] in every CSRs()[k]. This mirrors §8.1 of the paper, where the
// 2.7 M pages common to all four crawls form the analysis subgraph.
type Aligned struct {
	// URLs[i] is the address of node i in every aligned graph.
	URLs []string
	// Times[k] is the crawl time of snapshot k.
	Times []float64
	// Labels[k] names snapshot k.
	Labels []string

	// csrs[k] is snapshot k's subgraph induced by the common pages, frozen.
	csrs []*graph.CSR
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
		csrs:   make([]*graph.CSR, len(snaps)),
	}
	for k, s := range snaps {
		al.Times[k] = s.Time
		al.Labels[k] = s.Label
	}
	err := par.DoErr(len(snaps), 0, func(k int) error {
		g := snaps[k].Graph
		keep := make([]graph.NodeID, len(common))
		for i, url := range common {
			id, ok := g.Lookup(url)
			if !ok {
				return fmt.Errorf("%w: %q vanished during alignment", ErrAlign, url)
			}
			keep[i] = id
		}
		al.csrs[k] = graph.Freeze(g.Subgraph(keep))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return al, nil
}

// NumPages returns the number of common pages.
func (a *Aligned) NumPages() int { return len(a.URLs) }

// NumSnapshots returns the number of snapshots in the series.
func (a *Aligned) NumSnapshots() int { return len(a.csrs) }

// CSRs returns every aligned snapshot's subgraph, frozen: node i of each
// is URLs[i]. The graphs are shared, not copied.
func (a *Aligned) CSRs() []*graph.CSR { return a.csrs }

// PageRankSeries computes the paper-variant PageRank of every common page
// in every snapshot, returning ranks[k][i] = PR of page i at snapshot k.
// Snapshot 0 is solved from a cold start; every later snapshot re-seeds
// from the previous one's converged vector via pagerank.ComputeIncremental
// over the graph.Diff between the two. Aligned snapshots share one node
// space, so each diff is pure edge churn. Each solve converges to the
// same fixed point a cold start reaches, to within the convergence
// tolerance, and the result is bitwise identical for every GOMAXPROCS:
// the sweeps inside each solve are parallel, the snapshots sequential.
func (a *Aligned) PageRankSeries() ([][]float64, error) {
	ranks := make([][]float64, len(a.csrs))
	res, err := pagerank.Compute(a.csrs[0], pagerank.Options{})
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", a.Labels[0], err)
	}
	if !res.Converged {
		return nil, fmt.Errorf("snapshot %s: PageRank did not converge (delta %g after %d iters)",
			a.Labels[0], res.Delta, res.Iterations)
	}
	ranks[0] = res.Rank
	for k := 1; k < len(a.csrs); k++ {
		d, err := graph.Diff(a.csrs[k-1], a.csrs[k])
		if err != nil {
			return nil, fmt.Errorf("snapshot %s: %w", a.Labels[k], err)
		}
		inc, err := pagerank.ComputeIncremental(a.csrs[k], ranks[k-1], d, pagerank.IncrementalOptions{})
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
	out := make([][]float64, len(a.csrs))
	for k, c := range a.csrs {
		out[k] = pagerank.InDegree(c)
	}
	return out
}
