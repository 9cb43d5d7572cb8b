package pagerank

import (
	"fmt"

	"pagequality/internal/graph"
)

// IncrementalOptions configures ComputeIncremental. The embedded Options
// carry the same meaning as for Compute.
type IncrementalOptions struct {
	Options
}

// ComputeIncremental computes the PageRank of c, the newer freeze of the
// graph.Diff d, given the converged vector prev of the older freeze. It
// checks that d describes the transition into c and that prev belongs to
// d's older freeze, then solves c cold: the result is
// Compute(c, opts.Options) bit for bit. Between crawls a month or more
// apart nearly every node's in-list or an in-neighbour's out-degree
// changes, so a warm start from prev has nothing local to exploit
// (DESIGN.md §10).
func ComputeIncremental(c *graph.CSR, prev []float64, d *graph.Delta, opts IncrementalOptions) (*Result, error) {
	if d == nil {
		return nil, fmt.Errorf("%w: nil delta", ErrBadOptions)
	}
	if d.NewNodes != c.NumNodes() {
		return nil, fmt.Errorf("%w: delta targets %d nodes, CSR has %d", graph.ErrDelta, d.NewNodes, c.NumNodes())
	}
	if len(prev) != d.OldNodes {
		return nil, fmt.Errorf("%w: previous vector has %d entries, delta's old freeze has %d nodes",
			ErrBadOptions, len(prev), d.OldNodes)
	}
	return Compute(c, opts.Options)
}
