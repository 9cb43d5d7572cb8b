package snapshot

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pagequality/internal/graph"
	"pagequality/internal/pagerank"
)

// chain builds a tiny site graph with URLs u0..u(n-1) and links i -> i+1.
func chain(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.MustAddPage(graph.Page{URL: fmt.Sprintf("http://s/%02d", i), Site: 0})
	}
	for i := 0; i < n-1; i++ {
		g.AddLink(graph.NodeID(i), graph.NodeID(i+1))
	}
	return g
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	snaps := []Snapshot{
		{Label: "t1", Time: 0, Graph: chain(5)},
		{Label: "t2", Time: 4, Graph: chain(6)},
		{Label: "t3", Time: 8.5, Graph: chain(7)},
	}
	data, err := Encode(snaps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d snapshots", len(got))
	}
	for i := range snaps {
		if got[i].Label != snaps[i].Label || got[i].Time != snaps[i].Time { //pqlint:allow floateq round-trip parity check; Time must survive encoding bit-for-bit
			t.Fatalf("snapshot %d metadata changed: %+v", i, got[i])
		}
		if got[i].Graph.NumNodes() != snaps[i].Graph.NumNodes() ||
			got[i].Graph.NumEdges() != snaps[i].Graph.NumEdges() {
			t.Fatalf("snapshot %d graph changed", i)
		}
	}
}

func TestEncodeNilGraph(t *testing.T) {
	if _, err := Encode([]Snapshot{{Label: "x"}}); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestDecodeCorruption(t *testing.T) {
	data, err := Encode([]Snapshot{{Label: "t1", Time: 1, Graph: chain(4)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func([]byte) []byte{
		func(b []byte) []byte { b[0] = 'X'; return b },          // magic
		func(b []byte) []byte { b[10] ^= 0x55; return b },       // body
		func(b []byte) []byte { return b[:8] },                  // truncated
		func(b []byte) []byte { return append(b, 0) },           // trailing garbage breaks crc position
		func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, // crc
	} {
		buf := append([]byte(nil), data...)
		if _, err := Decode(mutate(buf)); err == nil {
			t.Fatal("corruption not detected")
		}
	}
}

func TestWriteReadFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "web.pqs")
	snaps := []Snapshot{
		{Label: "t1", Time: 0, Graph: chain(4)},
		{Label: "t2", Time: 4, Graph: chain(4)},
	}
	if err := WriteFile(path, snaps); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Label != "t2" {
		t.Fatalf("read back %d snapshots", len(got))
	}
	// Overwrite must succeed and leave no temp files behind.
	if err := WriteFile(path, snaps[:1]); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after rewrite, want 1", len(entries))
	}
	got, err = ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("rewrite not visible: %d snapshots", len(got))
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.pqs")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSelect(t *testing.T) {
	snaps := alignFixture()
	for label, want := range map[string]string{"": "t3", "t1": "t1", "t2": "t2"} {
		if s, err := Select(snaps, label); err != nil || s.Label != want {
			t.Errorf("Select(%q) = %q, %v; want %q", label, s.Label, err, want)
		}
	}
	if _, err := Select(snaps, "t9"); err == nil {
		t.Error("unknown label selected")
	}
	if _, err := Select(nil, ""); err == nil {
		t.Error("empty store selected")
	}
}

// alignFixture builds three snapshots where pages a,b,c exist everywhere,
// page d only in later snapshots, and page e only in the first.
func alignFixture() []Snapshot {
	mk := func(urls []string, links [][2]int) *graph.Graph {
		g := graph.New(len(urls))
		for _, u := range urls {
			g.MustAddPage(graph.Page{URL: u})
		}
		for _, l := range links {
			g.AddLink(graph.NodeID(l[0]), graph.NodeID(l[1]))
		}
		return g
	}
	s1 := mk([]string{"a", "b", "c", "e"}, [][2]int{{0, 1}, {3, 0}})
	s2 := mk([]string{"b", "a", "c", "d"}, [][2]int{{1, 0}, {0, 2}, {3, 2}}) // a->b, b->c
	s3 := mk([]string{"c", "d", "a", "b"}, [][2]int{{2, 3}, {3, 0}, {1, 0}}) // a->b, b->c
	return []Snapshot{
		{Label: "t1", Time: 0, Graph: s1},
		{Label: "t2", Time: 4, Graph: s2},
		{Label: "t3", Time: 8, Graph: s3},
	}
}

func TestAlign(t *testing.T) {
	al, err := Align(alignFixture())
	if err != nil {
		t.Fatal(err)
	}
	if al.NumPages() != 3 {
		t.Fatalf("common pages = %d (%v), want 3", al.NumPages(), al.URLs)
	}
	if al.URLs[0] != "a" || al.URLs[1] != "b" || al.URLs[2] != "c" {
		t.Fatalf("URLs = %v, want sorted [a b c]", al.URLs)
	}
	if al.NumSnapshots() != 3 {
		t.Fatalf("snapshots = %d", al.NumSnapshots())
	}
	// Node ids are consistent: node 0 is "a" in every graph.
	for k, g := range al.Graphs {
		if g.NumNodes() != 3 {
			t.Fatalf("graph %d has %d nodes", k, g.NumNodes())
		}
		if g.Page(0).URL != "a" || g.Page(1).URL != "b" || g.Page(2).URL != "c" {
			t.Fatalf("graph %d node numbering inconsistent", k)
		}
	}
	// s1 has a->b (e->a dropped with e); s2 and s3 have a->b and b->c.
	if al.Graphs[0].NumEdges() != 1 || !al.Graphs[0].HasLink(0, 1) {
		t.Fatalf("aligned t1 edges wrong")
	}
	for k := 1; k < 3; k++ {
		if !al.Graphs[k].HasLink(0, 1) || !al.Graphs[k].HasLink(1, 2) {
			t.Fatalf("aligned t%d edges wrong", k+1)
		}
	}
}

func TestAlignErrors(t *testing.T) {
	fix := alignFixture()
	if _, err := Align(fix[:1]); !errors.Is(err, ErrAlign) {
		t.Fatal("single snapshot accepted")
	}
	// Time order violated.
	bad := []Snapshot{fix[1], fix[0]}
	if _, err := Align(bad); !errors.Is(err, ErrAlign) {
		t.Fatal("out-of-order snapshots accepted")
	}
	// Duplicate crawl times: Align used to let these through (it checked
	// only for strictly decreasing times) and EstimateWithRegression then
	// rejected the aligned series it was handed — an invariant mismatch
	// between producer and consumer. Equal times must fail at Align.
	dup := alignFixture()
	dup[1].Time = dup[0].Time
	if _, err := Align(dup); !errors.Is(err, ErrAlign) {
		t.Fatal("duplicate snapshot times accepted")
	}
	// Disjoint snapshots.
	g1 := graph.New(1)
	g1.MustAddPage(graph.Page{URL: "only1"})
	g2 := graph.New(1)
	g2.MustAddPage(graph.Page{URL: "only2"})
	if _, err := Align([]Snapshot{{Graph: g1}, {Graph: g2, Time: 1}}); !errors.Is(err, ErrAlign) {
		t.Fatal("disjoint snapshots accepted")
	}
}

// TestAlignDuplicateURL is the regression test for duplicate URLs in the
// first snapshot: SetPage can alias two nodes to one address, and Align
// used to emit one aligned node per occurrence — the duplicates resolved
// to the same page, double-counting its links.
func TestAlignDuplicateURL(t *testing.T) {
	mk := func() *graph.Graph {
		g := graph.New(3)
		g.MustAddPage(graph.Page{URL: "a"})
		g.MustAddPage(graph.Page{URL: "b"})
		g.MustAddPage(graph.Page{URL: "c"})
		g.AddLink(1, 0)
		g.AddLink(2, 0)
		return g
	}
	dup := mk()
	dup.SetPage(2, graph.Page{URL: "a"}) // nodes 0 and 2 now both claim "a"
	snaps := []Snapshot{
		{Label: "t1", Time: 0, Graph: dup},
		{Label: "t2", Time: 1, Graph: mk()},
	}
	al, err := Align(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if al.NumPages() != 2 {
		t.Fatalf("aligned pages = %d (%v), want deduped [a b]", al.NumPages(), al.URLs)
	}
	if al.URLs[0] != "a" || al.URLs[1] != "b" {
		t.Fatalf("URLs = %v, want [a b]", al.URLs)
	}
	for k, g := range al.Graphs {
		if g.NumNodes() != 2 {
			t.Fatalf("graph %d has %d nodes, want 2", k, g.NumNodes())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("graph %d invalid after dedupe: %v", k, err)
		}
	}
}

func TestPageRankSeries(t *testing.T) {
	al, err := Align(alignFixture())
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := al.PageRankSeries(pagerank.Options{Variant: pagerank.VariantPaper})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 3 || len(ranks[0]) != 3 {
		t.Fatalf("ranks shape %dx%d", len(ranks), len(ranks[0]))
	}
	// Page c gains an in-link from t1 to t2: its PageRank must increase.
	if ranks[1][2] <= ranks[0][2] {
		t.Fatalf("PR(c) did not increase: %g -> %g", ranks[0][2], ranks[1][2])
	}
	// Paper variant: every snapshot's ranks sum to the page count.
	for k := range ranks {
		sum := 0.0
		for _, v := range ranks[k] {
			sum += v
		}
		if math.Abs(sum-3) > 1e-6 {
			t.Fatalf("snapshot %d rank sum = %g", k, sum)
		}
	}
}

// TestPageRankSeriesParallelDeterministic runs the parallel snapshot
// fan-out (run it under -race) and checks that the worker budget never
// changes the result: series computed with Workers 1, 4 and GOMAXPROCS
// must be bitwise identical, and concurrent series calls must share the
// lazily built CSR cache safely.
func TestPageRankSeriesParallelDeterministic(t *testing.T) {
	// A wider series than alignFixture: ten snapshots over a growing graph.
	mk := func(extra int) *graph.Graph {
		g := graph.New(40)
		for i := 0; i < 40; i++ {
			g.MustAddPage(graph.Page{URL: fmt.Sprintf("p%02d", i)})
		}
		for i := 1; i < 40; i++ {
			g.AddLink(graph.NodeID(i), graph.NodeID((i*7)%40))
		}
		for i := 0; i < extra; i++ {
			g.AddLink(graph.NodeID(i%40), graph.NodeID((i*13+1)%40))
		}
		return g
	}
	var snaps []Snapshot
	for k := 0; k < 10; k++ {
		snaps = append(snaps, Snapshot{Label: fmt.Sprintf("t%d", k), Time: float64(k), Graph: mk(k * 5)})
	}
	al, err := Align(snaps)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent first use exercises the CSR-cache Once plus the parallel
	// fan-out under the race detector.
	results := make([][][]float64, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for w, workers := range []int{1, 4, 0} {
		wg.Add(1)
		go func(slot, workers int) {
			defer wg.Done()
			results[slot], errs[slot] = al.PageRankSeries(pagerank.Options{Workers: workers, Tol: 1e-11})
		}(w, workers)
	}
	wg.Wait()
	for slot, err := range errs {
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
	}
	for slot := 1; slot < 3; slot++ {
		for k := range results[0] {
			for i := range results[0][k] {
				if results[slot][k][i] != results[0][k][i] { //pqlint:allow floateq worker-count bitwise parity is the property under test
					t.Fatalf("worker setting %d: snapshot %d rank[%d] = %g differs from %g",
						slot, k, i, results[slot][k][i], results[0][k][i])
				}
			}
		}
	}
}

// TestPageRankSeriesIncremental pins the chained incremental series to
// the independently computed series: identical fixed points within the
// convergence tolerance at every snapshot.
func TestPageRankSeriesIncremental(t *testing.T) {
	mk := func(extra int) *graph.Graph {
		g := graph.New(40)
		for i := 0; i < 40; i++ {
			g.MustAddPage(graph.Page{URL: fmt.Sprintf("p%02d", i)})
		}
		for i := 1; i < 40; i++ {
			g.AddLink(graph.NodeID(i), graph.NodeID((i*7)%40))
		}
		for i := 0; i < extra; i++ {
			g.AddLink(graph.NodeID(i%40), graph.NodeID((i*13+1)%40))
		}
		return g
	}
	var snaps []Snapshot
	for k := 0; k < 6; k++ {
		snaps = append(snaps, Snapshot{Label: fmt.Sprintf("t%d", k), Time: float64(k), Graph: mk(k * 5)})
	}
	al, err := Align(snaps)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []pagerank.Variant{pagerank.VariantPaper, pagerank.VariantStandard} {
		opts := pagerank.Options{Variant: variant}
		full, err := al.PageRankSeries(opts)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := al.PageRankSeriesIncremental(pagerank.IncrementalOptions{Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if len(inc) != len(full) {
			t.Fatalf("variant %d: series length %d vs %d", variant, len(inc), len(full))
		}
		for k := range full {
			for i := range full[k] {
				if d := math.Abs(inc[k][i] - full[k][i]); d > 1e-7 {
					t.Fatalf("variant %d: snapshot %d rank[%d] differs by %g (%g vs %g)",
						variant, k, i, d, inc[k][i], full[k][i])
				}
			}
		}
	}
}

func TestInDegreeSeries(t *testing.T) {
	al, err := Align(alignFixture())
	if err != nil {
		t.Fatal(err)
	}
	ind := al.InDegreeSeries()
	if ind[0][1] != 1 || ind[0][2] != 0 {
		t.Fatalf("t1 in-degrees = %v", ind[0])
	}
	if ind[1][2] != 1 {
		t.Fatalf("t2 in-degrees = %v", ind[1])
	}
}

func TestLargeStoreRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("large store round trip")
	}
	snaps := make([]Snapshot, 4)
	for k := range snaps {
		snaps[k] = Snapshot{Label: fmt.Sprintf("t%d", k+1), Time: float64(4 * k), Graph: chain(5000)}
	}
	data, err := Encode(snaps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[3].Graph.NumNodes() != 5000 {
		t.Fatal("large round trip failed")
	}
}
