package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"pagequality/internal/graph"
	"pagequality/internal/snapshot"
)

// writeFixture creates a small store with two snapshots.
func writeFixture(t *testing.T) string {
	t.Helper()
	mk := func(extra int) *graph.Graph {
		g := graph.New(6)
		for i := 0; i < 6; i++ {
			g.MustAddPage(graph.Page{URL: fmt.Sprintf("http://s/p%d", i)})
		}
		// star toward node 0
		for i := 1; i < 6; i++ {
			g.AddLink(graph.NodeID(i), 0)
		}
		g.AddLink(0, 1)
		for i := 0; i < extra; i++ {
			g.AddLink(graph.NodeID(1+i), 5)
		}
		return g
	}
	path := filepath.Join(t.TempDir(), "web.pqs")
	err := snapshot.WriteFile(path, []snapshot.Snapshot{
		{Label: "t1", Time: 0, Graph: mk(0)},
		{Label: "t2", Time: 4, Graph: mk(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPageRankCLI(t *testing.T) {
	path := writeFixture(t)
	var buf bytes.Buffer
	if err := run([]string{"-in", path, "-top", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "snapshot t2") {
		t.Fatalf("did not default to last snapshot:\n%s", out)
	}
	if !strings.Contains(out, "http://s/p0") {
		t.Fatalf("hub page missing from top-3:\n%s", out)
	}
	// The hub must be the first-ranked row.
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "rank") {
			if !strings.Contains(lines[i+1], "http://s/p0") {
				t.Fatalf("rank-1 row is not the hub:\n%s", out)
			}
			break
		}
	}
}

func TestPageRankCLISnapshotSelection(t *testing.T) {
	path := writeFixture(t)
	var buf bytes.Buffer
	if err := run([]string{"-in", path, "-snapshot", "t1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "snapshot t1") {
		t.Fatalf("snapshot selection failed:\n%s", buf.String())
	}
	if err := run([]string{"-in", path, "-snapshot", "zz"}, &buf); err == nil {
		t.Fatal("unknown label accepted")
	}
}

func TestPageRankCLIMetrics(t *testing.T) {
	path := writeFixture(t)
	for _, metric := range []string{"hits", "indegree"} {
		var buf bytes.Buffer
		if err := run([]string{"-in", path, "-metric", metric}, &buf); err != nil {
			t.Fatalf("%s: %v", metric, err)
		}
		if !strings.Contains(buf.String(), "http://s/") {
			t.Fatalf("%s produced no table:\n%s", metric, buf.String())
		}
	}
	var buf bytes.Buffer
	if err := run([]string{"-in", path, "-metric", "bogus"}, &buf); err == nil {
		t.Fatal("unknown metric accepted")
	}
	if err := run([]string{"-in", path, "-variant", "bogus"}, &buf); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestPageRankCLIMissingFile(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-in", filepath.Join(t.TempDir(), "none.pqs")}, &buf); err == nil {
		t.Fatal("missing store accepted")
	}
}

// writeGraph stores g as the single snapshot of a new store.
func writeGraph(t *testing.T, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "web.pqs")
	if err := snapshot.WriteFile(path, []snapshot.Snapshot{{Label: "t1", Graph: g}}); err != nil {
		t.Fatal(err)
	}
	return path
}

// The solvers' status lines say whether they converged: a periodic graph
// with almost no random jump keeps PageRank oscillating past MaxIter, and
// two stars of 10 and 9 in-links leave HITS's authority iteration shrinking
// its error by only 0.9 a step.
func TestCLIReportsNonConvergence(t *testing.T) {
	cycle := graph.New(3)
	for i := 0; i < 3; i++ {
		cycle.MustAddPage(graph.Page{URL: fmt.Sprintf("http://s/p%d", i)})
	}
	cycle.AddLink(0, 1)
	cycle.AddLink(2, 1)
	cycle.AddLink(1, 0)
	cycle.AddLink(1, 2)
	stars := graph.New(21)
	for i := 0; i < 21; i++ {
		stars.MustAddPage(graph.Page{URL: fmt.Sprintf("http://s/p%d", i)})
	}
	for i := 1; i <= 10; i++ {
		stars.AddLink(graph.NodeID(i), 0)
	}
	for i := 12; i <= 20; i++ {
		stars.AddLink(graph.NodeID(i), 11)
	}
	for _, tc := range []struct {
		g          *graph.Graph
		args       []string
		want, deny string
	}{
		{cycle, []string{"-jump", "0.0001"}, "PageRank did not converge in 200 iterations", "PageRank converged"},
		{cycle, nil, "PageRank converged in", "did not converge"},
		{stars, []string{"-metric", "hits"}, "HITS did not converge in 100 iterations", "HITS converged"},
		{cycle, []string{"-metric", "hits"}, "HITS converged in", "did not converge"},
	} {
		var buf bytes.Buffer
		if err := run(append([]string{"-in", writeGraph(t, tc.g)}, tc.args...), &buf); err != nil {
			t.Fatal(err)
		}
		if out := buf.String(); !strings.Contains(out, tc.want) || strings.Contains(out, tc.deny) {
			t.Errorf("%v: want %q and no %q in:\n%s", tc.args, tc.want, tc.deny, out)
		}
	}
}

// TestPageRankCLIStdoutPinned pins the whole table byte for byte on a
// graph made of two tie groups: each even page links to its two
// neighbours on a ring of 14, so the seven odd pages tie on in-degree and
// on PageRank, and so do the seven even ones. Equal scores print in page
// order, which an unstable sort of 14 scores does not keep.
func TestPageRankCLIStdoutPinned(t *testing.T) {
	g := graph.New(14)
	for i := 0; i < 14; i++ {
		g.MustAddPage(graph.Page{URL: fmt.Sprintf("http://s/p%d", i)})
	}
	for i := 0; i < 14; i += 2 {
		g.AddLink(graph.NodeID(i), graph.NodeID((i+13)%14))
		g.AddLink(graph.NodeID(i), graph.NodeID(i+1))
	}
	path := writeGraph(t, g)
	const indegree = `snapshot t1 (week 0.0): 14 pages, 14 links
rank         score    in-deg   out-deg  url
   1       2.00000         2         0  http://s/p1
   2       2.00000         2         0  http://s/p3
   3       2.00000         2         0  http://s/p5
   4       2.00000         2         0  http://s/p7
   5       2.00000         2         0  http://s/p9
   6       2.00000         2         0  http://s/p11
   7       2.00000         2         0  http://s/p13
   8       0.00000         0         2  http://s/p0
   9       0.00000         0         2  http://s/p2
  10       0.00000         0         2  http://s/p4
  11       0.00000         0         2  http://s/p6
  12       0.00000         0         2  http://s/p8
  13       0.00000         0         2  http://s/p10
  14       0.00000         0         2  http://s/p12
`
	const pr = `snapshot t1 (week 0.0): 14 pages, 14 links
PageRank converged in 25 iterations (delta 5.1e-10)
rank         score    in-deg   out-deg  url
   1       1.29825         2         0  http://s/p1
   2       1.29825         2         0  http://s/p3
   3       1.29825         2         0  http://s/p5
   4       1.29825         2         0  http://s/p7
   5       1.29825         2         0  http://s/p9
   6       1.29825         2         0  http://s/p11
   7       1.29825         2         0  http://s/p13
   8       0.70175         0         2  http://s/p0
   9       0.70175         0         2  http://s/p2
  10       0.70175         0         2  http://s/p4
  11       0.70175         0         2  http://s/p6
  12       0.70175         0         2  http://s/p8
  13       0.70175         0         2  http://s/p10
  14       0.70175         0         2  http://s/p12
`
	for _, tc := range []struct{ metric, want string }{
		{"indegree", indegree},
		{"pagerank", pr},
	} {
		var buf bytes.Buffer
		if err := run([]string{"-in", path, "-metric", tc.metric}, &buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != tc.want {
			t.Errorf("-metric %s:\n--- got ---\n%s--- want ---\n%s", tc.metric, buf.String(), tc.want)
		}
	}
}
