package pagerank

import (
	"errors"
	"math/rand"
	"testing"

	"pagequality/internal/graph"
)

// churnGraphs builds a preferential-attachment graph, freezes it, then
// applies a bounded amount of churn — edge additions, removals and a few
// new nodes — and freezes again.
func churnGraphs(t testing.TB, nodes, newNodes, addEdges, removeEdges int, seed int64) (old, cur *graph.CSR) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := graph.GeneratePreferentialAttachment(
		graph.PreferentialAttachmentConfig{Nodes: nodes, OutPerNode: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	old = graph.Freeze(g)

	for removed := 0; removed < removeEdges; {
		from := graph.NodeID(rng.Intn(nodes))
		if outs := g.OutLinks(from); len(outs) > 1 { // keep the graph connected-ish
			g.RemoveLink(from, outs[rng.Intn(len(outs))])
			removed++
		}
	}
	for added := 0; added < addEdges; {
		if g.AddLink(graph.NodeID(rng.Intn(nodes)), graph.NodeID(rng.Intn(nodes))) {
			added++
		}
	}
	first := graph.NodeID(g.NumNodes())
	g.AddNodes(newNodes)
	for i := 0; i < newNodes; i++ {
		g.AddLink(graph.NodeID(rng.Intn(nodes)), first+graph.NodeID(i))
		g.AddLink(first+graph.NodeID(i), graph.NodeID(rng.Intn(nodes)))
	}
	return old, graph.Freeze(g)
}

// TestIncrementalBadInput: ComputeIncremental refuses a delta that does
// not describe the transition into c, and a previous vector that does not
// belong to the delta's old freeze.
func TestIncrementalBadInput(t *testing.T) {
	old, cur := churnGraphs(t, 500, 5, 10, 5, 9)
	d, err := graph.Diff(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := Compute(old, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeIncremental(cur, prev.Rank, nil, IncrementalOptions{}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("nil delta accepted: %v", err)
	}
	if _, err := ComputeIncremental(cur, prev.Rank[:10], d, IncrementalOptions{}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("short previous vector accepted: %v", err)
	}
	if _, err := ComputeIncremental(old, prev.Rank, d, IncrementalOptions{}); !errors.Is(err, graph.ErrDelta) {
		t.Fatalf("delta applied to wrong CSR accepted: %v", err)
	}
}
