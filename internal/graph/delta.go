package graph

import (
	"errors"
	"fmt"
	"slices"

	"pagequality/internal/bitset"
)

// Edge is one directed link, used by Delta to record structural changes
// between two freezes of a graph.
type Edge struct {
	From, To NodeID
}

// Delta records the structural difference between two frozen views of a
// growing graph: nodes appended at the end of the id space, and edges
// added or removed among existing nodes. Both freezes must share one
// dense NodeID space with the old graph's ids forming a prefix of the
// new one's — exactly what Graph guarantees when pages are only ever
// appended (the crawler, the corpus simulator and snapshot alignment all
// preserve this).
//
// A Delta is the input contract of pagerank.ComputeIncremental: it
// bounds the set of nodes whose fixed-point value can have moved, so the
// power iteration can re-seed from the previous converged vector and
// restrict per-iteration work to the affected region of the graph.
type Delta struct {
	// OldNodes and NewNodes are the node counts of the two freezes.
	// Nodes [OldNodes, NewNodes) are new.
	OldNodes, NewNodes int
	// Added and Removed are the edge changes among pre-existing rows plus
	// every edge of a new node, in (from, then row) order of the freeze
	// they were observed in.
	Added, Removed []Edge
	// OutDegreeChanged lists the old nodes whose out-degree differs
	// between the freezes, in ascending order. Their 1/outdeg scaling
	// changed, so every one of their current out-neighbours receives a
	// different contribution even when its own in-list is untouched.
	OutDegreeChanged []NodeID
}

// ErrDelta reports freezes that cannot be diffed or a delta that does not
// describe the CSR it is applied to.
var ErrDelta = errors.New("graph: bad delta")

// Diff computes the Delta between two freezes of a growing graph. The
// old freeze's nodes must be a prefix of the new one's; node removal is
// not supported (nothing in this codebase removes pages).
func Diff(old, cur *CSR) (*Delta, error) {
	if cur.NumNodes() < old.NumNodes() {
		return nil, fmt.Errorf("%w: new freeze has %d nodes, old has %d (nodes cannot be removed)",
			ErrDelta, cur.NumNodes(), old.NumNodes())
	}
	d := &Delta{OldNodes: old.NumNodes(), NewNodes: cur.NumNodes()}
	// stamp[t] == epoch marks t as a target of the row side last stamped;
	// each changed row takes two fresh epochs, so no mark is ever cleared.
	// Row order, not set order, keeps the edge lists deterministic.
	stamp := make([]uint32, d.NewNodes)
	epoch := uint32(0)
	for i := 0; i < d.OldNodes; i++ {
		id := NodeID(i)
		or, nr := old.Out(id), cur.Out(id)
		if slices.Equal(or, nr) {
			continue
		}
		epoch++
		for _, t := range or {
			stamp[t] = epoch
		}
		for _, t := range nr {
			if stamp[t] != epoch {
				d.Added = append(d.Added, Edge{From: id, To: t})
			}
		}
		epoch++
		for _, t := range nr {
			stamp[t] = epoch
		}
		for _, t := range or {
			if stamp[t] != epoch {
				d.Removed = append(d.Removed, Edge{From: id, To: t})
			}
		}
		if len(or) != len(nr) {
			d.OutDegreeChanged = append(d.OutDegreeChanged, id)
		}
	}
	for i := d.OldNodes; i < d.NewNodes; i++ {
		id := NodeID(i)
		for _, t := range cur.Out(id) {
			d.Added = append(d.Added, Edge{From: id, To: t})
		}
	}
	return d, nil
}

// Validate checks that the delta plausibly describes the transition into
// c: node counts line up and every recorded edge endpoint is in range.
func (d *Delta) Validate(c *CSR) error {
	if d.NewNodes != c.NumNodes() {
		return fmt.Errorf("%w: delta targets %d nodes, CSR has %d", ErrDelta, d.NewNodes, c.NumNodes())
	}
	if d.OldNodes < 0 || d.OldNodes > d.NewNodes {
		return fmt.Errorf("%w: OldNodes %d outside [0, %d]", ErrDelta, d.OldNodes, d.NewNodes)
	}
	n := NodeID(d.NewNodes)
	for _, e := range d.Added {
		if e.From >= n || e.To >= n {
			return fmt.Errorf("%w: added edge %d->%d out of range", ErrDelta, e.From, e.To)
		}
	}
	oldN := NodeID(d.OldNodes)
	for _, e := range d.Removed {
		if e.From >= oldN || e.To >= oldN {
			return fmt.Errorf("%w: removed edge %d->%d outside old node range", ErrDelta, e.From, e.To)
		}
	}
	for _, id := range d.OutDegreeChanged {
		if id >= oldN {
			return fmt.Errorf("%w: out-degree change on new node %d", ErrDelta, id)
		}
	}
	return nil
}

// NumChanges returns the total number of recorded edge changes.
func (d *Delta) NumChanges() int { return len(d.Added) + len(d.Removed) }

// DirtyNodes returns, in ascending order, every node of c whose PageRank
// update rule or inputs changed under the delta:
//
//   - targets of added and removed edges (their in-list changed),
//   - current out-neighbours of nodes whose out-degree changed (the
//     1/outdeg contribution they receive changed),
//   - the out-degree-changed nodes themselves (their danglingness may
//     have flipped, which changes their own update under DanglingSelf),
//   - every new node.
//
// Everything outside this set holds its previous fixed-point value up to
// the global dangling-mass and normalisation coupling, which the caller
// settles with full polish sweeps.
func (d *Delta) DirtyNodes(c *CSR) []NodeID {
	dirty := bitset.New(d.NewNodes)
	for _, e := range d.Added {
		dirty.Set(int(e.To))
	}
	for _, e := range d.Removed {
		dirty.Set(int(e.To))
	}
	for _, id := range d.OutDegreeChanged {
		dirty.Set(int(id))
		for _, t := range c.Out(id) {
			dirty.Set(int(t))
		}
	}
	for i := d.OldNodes; i < d.NewNodes; i++ {
		dirty.Set(i)
	}
	out := make([]NodeID, 0, dirty.Count())
	dirty.ForEach(func(i int) bool {
		out = append(out, NodeID(i))
		return true
	})
	return out
}
