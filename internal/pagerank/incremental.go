package pagerank

import (
	"fmt"
	"math"

	"pagequality/internal/bitset"
	"pagequality/internal/graph"
)

// This file implements delta-aware PageRank: when the graph changes only
// locally between two freezes, the fixed point moves mostly in the region
// reachable from the change, so re-running the full power iteration from
// the uniform vector wastes nearly all of its work. ComputeIncremental
// instead re-seeds from the previous converged vector and runs localized
// residual-push sweeps over the frontier of dirty nodes — expanding along
// out-links only where a value actually moved — before certifying the
// result with full power-iteration sweeps under the exact convergence
// criterion Compute uses. Past the churn threshold (churnThreshold) the
// locality assumption is void and it delegates to Compute wholesale,
// bitwise identical to a full recompute.

// IncrementalOptions configures ComputeIncremental. The embedded Options
// carry the same meaning as for Compute; Extrapolate is not supported
// (Aitken extrapolation assumes the geometric error decay of a cold
// start, which a warm start deliberately destroys).
type IncrementalOptions struct {
	Options
}

// churnThreshold is the dirty-node fraction of the graph above which the
// frontier pass is abandoned and the result comes from a plain Compute
// call, bitwise identical to a full recompute.
const churnThreshold = 0.25

// IncrementalResult extends Result with incremental-path diagnostics.
// Iterations, Delta and Converged describe the polish phase (or the full
// recompute when FullRecompute is set) — the phase that enforces the
// same L1 criterion as Compute.
type IncrementalResult struct {
	Result
	// Dirty is the number of nodes the delta marked dirty.
	Dirty int
	// FullRecompute reports that churn exceeded churnThreshold and the
	// result is a verbatim Compute result.
	FullRecompute bool
	// FrontierSweeps is the number of localized sweeps performed.
	FrontierSweeps int
	// FrontierUpdates is the total number of node updates those sweeps
	// applied — the work the incremental path did in place of
	// Iterations × NumNodes full-sweep updates.
	FrontierUpdates int
}

func (o *IncrementalOptions) fill() error {
	if err := o.Options.fill(); err != nil {
		return err
	}
	if o.Extrapolate {
		return fmt.Errorf("%w: Extrapolate is not supported by ComputeIncremental", ErrBadOptions)
	}
	return nil
}

// ComputeIncremental computes the PageRank of c given the converged
// vector prev of a previous freeze and the Delta between the two freezes
// (see graph.Diff). prev must be the Rank slice of a Compute (or
// ComputeIncremental) run with the same Options on the old freeze; it is
// read, never mutated.
//
// The result agrees with Compute(c, opts.Options) within the convergence
// tolerance — the fixed point is unique and both paths stop under the
// same L1 criterion — but not bitwise, except when churn trips the
// full-recompute fallback, which is Compute verbatim.
func ComputeIncremental(c *graph.CSR, prev []float64, d *graph.Delta, opts IncrementalOptions) (*IncrementalResult, error) {
	n := c.NumNodes()
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if d == nil {
		return nil, fmt.Errorf("%w: nil delta", ErrBadOptions)
	}
	if err := d.Validate(c); err != nil {
		return nil, err
	}
	if len(prev) != d.OldNodes {
		return nil, fmt.Errorf("%w: previous vector has %d entries, delta's old freeze has %d nodes",
			ErrBadOptions, len(prev), d.OldNodes)
	}
	if n == 0 {
		return &IncrementalResult{Result: Result{Converged: true}}, nil
	}

	dirty := d.DirtyNodes(c)
	res := &IncrementalResult{Dirty: len(dirty)}
	if float64(len(dirty)) > churnThreshold*float64(n) {
		full, err := Compute(c, opts.Options)
		if err != nil {
			return nil, err
		}
		res.Result = *full
		res.FullRecompute = true
		return res, nil
	}

	inOff, inFrom := c.InLists()
	invOut := c.InvOutDegrees()
	follow := 1 - opts.Jump
	total, base := opts.scale(n)

	// frontierTol is the absolute per-node residual below which the
	// frontier phase leaves a correction unapplied, handing it to the
	// polish phase: Tol scaled by the variant's per-node magnitude (Tol
	// for VariantPaper, whose entries are O(1); Tol/NumNodes for
	// VariantStandard, whose entries are O(1/NumNodes)), so the frontier
	// phase converges its region to the same relative depth either way.
	frontierTol := opts.Tol * total / float64(n)

	// Warm-start vector: the previous fixed point for carried-over nodes,
	// the variant's uniform initial value for new ones — rescaled to the
	// variant's total mass. The rescale matters: the fixed point conserves
	// total mass, so when nodes arrive, every existing node's converged
	// value shrinks by the global factor the newcomers absorb. Seeding
	// with the unscaled vector leaves exactly that excess-mass error,
	// which decays at the damping factor (the slowest mode there is) and
	// would stall the polish phase near the tolerance.
	cur := make([]float64, n)
	copy(cur, prev)
	init := total / float64(n)
	warmSum := 0.0
	for i := d.OldNodes; i < n; i++ {
		cur[i] = init
	}
	for _, v := range cur {
		warmSum += v
	}
	if warmSum > 0 {
		scale := total / warmSum
		for i := range cur {
			cur[i] *= scale
		}
	}
	curS := make([]float64, n)
	dmass := 0.0
	for i, v := range cur {
		curS[i] = v * invOut[i]
		if invOut[i] == 0 {
			dmass += v
		}
	}

	// Frontier phase: residual push (Gauss–Southwell style, swept in
	// ascending node order for determinism). One gather pass over the
	// dirty nodes' in-lists prices their residuals r = (update rule) - cur;
	// after that, applying a residual costs out-degree work — each change
	// is pushed forward as follow·ch/outdeg onto the out-neighbours'
	// residuals — never another in-list gather. That asymmetry is the
	// point: on power-law graphs the dirty closure quickly includes hubs,
	// and re-gathering a hub's huge in-list every sweep (as a pull-based
	// frontier must) costs in-degree work per visit, which for hubs is
	// orders of magnitude more than their out-degree.
	//
	// Global couplings — the dangling share drifting as the dangling mass
	// moves, the final normalisation — are priced into the initial
	// residuals and then deliberately NOT re-propagated (each would be an
	// O(n) push); the polish phase settles them exactly.
	r := make([]float64, n)
	frontier, next := bitset.New(n), bitset.New(n)
	share := dmass / float64(n)
	for _, id := range dirty {
		i := int(id)
		gather := 0.0
		for e, end := inOff[i], inOff[i+1]; e < end; e++ {
			gather += curS[inFrom[e]]
		}
		gather += share
		r[i] = base + float64(follow*gather) - cur[i]
		frontier.Set(i)
	}
	// MaxIter bounds the localized sweeps too; the polish phase runs
	// regardless.
	for sweep := 1; sweep <= opts.MaxIter && frontier.Count() > 0; sweep++ {
		res.FrontierSweeps = sweep
		next.Reset()
		frontier.ForEach(func(i int) bool {
			ch := r[i]
			if math.Abs(ch) <= frontierTol {
				// Settled below the propagation threshold: drop from the
				// frontier but keep the residual — later pushes may lift it
				// back above the threshold, re-activating the node.
				return true
			}
			r[i] = 0
			cur[i] += ch
			res.FrontierUpdates++
			inv := invOut[i]
			if inv == 0 {
				// Dangling: nothing to push along; its change reaches the
				// other pages through the share, which the polish settles.
				return true
			}
			push := float64(follow * ch * inv)
			for _, w := range c.Out(graph.NodeID(i)) {
				r[w] += push
				if math.Abs(r[w]) > frontierTol {
					next.Set(int(w))
				}
			}
			return true
		})
		frontier, next = next, frontier
	}

	// Polish phase: full parallel power-iteration sweeps from the frontier
	// result, under exactly Compute's L1 convergence criterion. A warm
	// start close to the fixed point converges in a handful of sweeps and
	// certifies the parts the frontier phase approximated (dangling-share
	// drift on clean nodes, normalisation).
	polish, err := computeFrom(c, opts.Options, cur)
	if err != nil {
		return nil, err
	}
	res.Result = *polish
	return res, nil
}
