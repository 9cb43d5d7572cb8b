package graph

import (
	"errors"
	"fmt"
	"slices"
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
// pagerank.ComputeIncremental takes a Delta and checks that it describes
// the transition into the graph it solves.
type Delta struct {
	// OldNodes and NewNodes are the node counts of the two freezes.
	// Nodes [OldNodes, NewNodes) are new.
	OldNodes, NewNodes int
	// Added and Removed are the edge changes among pre-existing rows plus
	// every edge of a new node, in (from, then row) order of the freeze
	// they were observed in.
	Added, Removed []Edge
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
	}
	for i := d.OldNodes; i < d.NewNodes; i++ {
		id := NodeID(i)
		for _, t := range cur.Out(id) {
			d.Added = append(d.Added, Edge{From: id, To: t})
		}
	}
	return d, nil
}

// NumChanges returns the total number of recorded edge changes.
func (d *Delta) NumChanges() int { return len(d.Added) + len(d.Removed) }
