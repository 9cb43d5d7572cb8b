package graph

import (
	"errors"
	"testing"
)

// deltaFixture builds old (4 nodes) and new (6 nodes) freezes with one
// added edge among old nodes, one removed edge, and two new nodes.
func deltaFixture(t *testing.T) (old, cur *CSR) {
	t.Helper()
	g := New(4)
	g.AddNodes(4)
	g.AddLink(0, 1)
	g.AddLink(1, 2)
	g.AddLink(2, 0)
	g.AddLink(2, 3)
	old = Freeze(g)

	g.RemoveLink(2, 3)
	g.AddLink(0, 3)
	first := NodeID(g.NumNodes())
	g.AddNodes(2)
	g.AddLink(first, 0)
	g.AddLink(3, first+1)
	cur = Freeze(g)
	return old, cur
}

func TestDiff(t *testing.T) {
	old, cur := deltaFixture(t)
	d, err := Diff(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if d.OldNodes != 4 || d.NewNodes != 6 {
		t.Fatalf("node counts %d -> %d, want 4 -> 6", d.OldNodes, d.NewNodes)
	}
	wantAdded := []Edge{{0, 3}, {3, 5}, {4, 0}}
	if len(d.Added) != len(wantAdded) {
		t.Fatalf("Added = %v, want %v", d.Added, wantAdded)
	}
	for i, e := range wantAdded {
		if d.Added[i] != e {
			t.Fatalf("Added = %v, want %v", d.Added, wantAdded)
		}
	}
	if len(d.Removed) != 1 || d.Removed[0] != (Edge{2, 3}) {
		t.Fatalf("Removed = %v, want [{2 3}]", d.Removed)
	}
	if d.NumChanges() != 4 {
		t.Fatalf("NumChanges = %d, want 4", d.NumChanges())
	}
}

func TestDiffIdentical(t *testing.T) {
	old, _ := deltaFixture(t)
	d, err := Diff(old, old)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumChanges() != 0 {
		t.Fatalf("identical freezes produced changes: %+v", d)
	}
}

func TestDiffRejectsShrinking(t *testing.T) {
	old, cur := deltaFixture(t)
	if _, err := Diff(cur, old); !errors.Is(err, ErrDelta) {
		t.Fatalf("shrinking diff accepted: %v", err)
	}
}
