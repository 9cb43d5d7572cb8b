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

// fixture builds four snapshots where page "riser" steadily gains links.
func fixture(t *testing.T) string {
	t.Helper()
	mk := func(links int) *graph.Graph {
		g := graph.New(8)
		for i := 0; i < 8; i++ {
			g.MustAddPage(graph.Page{URL: fmt.Sprintf("http://s/p%d", i)})
		}
		// static ring among 0..5
		for i := 0; i < 6; i++ {
			g.AddLink(graph.NodeID(i), graph.NodeID((i+1)%6))
		}
		// riser = node 7 gains links from 0..links-1
		for i := 0; i < links && i < 6; i++ {
			g.AddLink(graph.NodeID(i), 7)
		}
		return g
	}
	path := filepath.Join(t.TempDir(), "web.pqs")
	err := snapshot.WriteFile(path, []snapshot.Snapshot{
		{Label: "t1", Time: 0, Graph: mk(1)},
		{Label: "t2", Time: 4, Graph: mk(2)},
		{Label: "t3", Time: 8, Graph: mk(3)},
		{Label: "t4", Time: 26, Graph: mk(5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestQualityCLI(t *testing.T) {
	path := fixture(t)
	var buf bytes.Buffer
	if err := run([]string{"-in", path, "-snaps", "3", "-top", "8"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "common pages") {
		t.Fatalf("missing alignment summary:\n%s", out)
	}
	if !strings.Contains(out, "increasing=") {
		t.Fatalf("missing class tally:\n%s", out)
	}
	// The riser must be listed with class increasing.
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "http://s/p7") && strings.Contains(line, "increasing") {
			found = true
		}
	}
	if !found {
		t.Fatalf("riser not classified increasing:\n%s", out)
	}
	// A future snapshot exists: the §8.2 scoring block must appear.
	if !strings.Contains(out, "prediction of t4") {
		t.Fatalf("missing future scoring:\n%s", out)
	}
	if !strings.Contains(out, "avg rel. error") {
		t.Fatalf("missing error summary:\n%s", out)
	}
}

// TestQualityCLIStdoutPinned pins the whole report byte for byte: with a
// future snapshot (-snaps 3, so t4 is scored as in §8.2) and without one.
func TestQualityCLIStdoutPinned(t *testing.T) {
	path := fixture(t)
	const table3 = `
rank        Q(p)     PR(now)  class        url
   1      1.9867      1.6867  increasing   http://s/p7
   2      1.3756      1.3756  stable       http://s/p0
   3      1.0926      1.1851  decreasing   http://s/p5
   4      1.0665      0.9530  increasing   http://s/p1
   5      0.7734      0.7734  fluctuating  http://s/p2
   6      0.7490      0.9608  decreasing   http://s/p4
   7      0.6684      0.3684  increasing   http://s/p6
   8      0.3970      0.6970  decreasing   http://s/p3
`
	const table4 = `
rank        Q(p)     PR(now)  class        url
   1      2.6333      2.3333  increasing   http://s/p7
   2      1.1073      1.1073  fluctuating  http://s/p0
   3      0.9158      0.9158  fluctuating  http://s/p1
   4      0.8344      0.8344  fluctuating  http://s/p2
   5      0.7999      0.7999  fluctuating  http://s/p3
   6      0.7452      0.4452  increasing   http://s/p6
   7      0.4852      0.7852  decreasing   http://s/p4
   8      0.4789      0.7789  decreasing   http://s/p5
`
	for _, tc := range []struct{ snaps, want string }{
		{"3", "4 snapshots, 8 common pages\n" +
			"classes: increasing=3 decreasing=3 fluctuating=1 stable=1 (changed>5%: 7)\n" + table3 +
			"\nprediction of t4 over 7 changed pages:\n" +
			"  avg rel. error  Q(p): 0.263   PR(now): 0.205\n" +
			"  median          Q(p): 0.165   PR(now): 0.173\n"},
		{"4", "4 snapshots, 8 common pages\n" +
			"classes: increasing=2 decreasing=2 fluctuating=4 stable=0 (changed>5%: 8)\n" + table4},
	} {
		var buf bytes.Buffer
		if err := run([]string{"-in", path, "-snaps", tc.snaps, "-top", "8"}, &buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != tc.want {
			t.Errorf("-snaps %s:\n--- got ---\n%s--- want ---\n%s", tc.snaps, buf.String(), tc.want)
		}
	}
}

func TestQualityCLIWithoutFuture(t *testing.T) {
	path := fixture(t)
	var buf bytes.Buffer
	// Use all 4 snapshots for estimation: no future left, no scoring block.
	if err := run([]string{"-in", path, "-snaps", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "prediction of") {
		t.Fatalf("scoring block printed without a future snapshot:\n%s", buf.String())
	}
}

func TestQualityCLIErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-in", filepath.Join(t.TempDir(), "none.pqs")}, &buf); err == nil {
		t.Fatal("missing store accepted")
	}
	path := fixture(t)
	if err := run([]string{"-in", path, "-snaps", "9"}, &buf); err == nil {
		t.Fatal("snaps beyond store accepted")
	}
	if err := run([]string{"-in", path, "-c", "-4"}, &buf); err == nil {
		t.Fatal("negative C accepted")
	}
}
