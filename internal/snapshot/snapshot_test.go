package snapshot

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
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

// hasLink reports whether c has the link from -> to.
func hasLink(c *graph.CSR, from, to graph.NodeID) bool {
	for _, t := range c.Out(from) {
		if t == to {
			return true
		}
	}
	return false
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
	// Node i is URLs[i] in every graph, whatever its id in the crawl:
	// a->b is edge 0->1 although "a" is node 1 of s2 and node 2 of s3.
	csrs := al.CSRs()
	for k, c := range csrs {
		if c.NumNodes() != 3 {
			t.Fatalf("graph %d has %d nodes", k, c.NumNodes())
		}
	}
	// s1 has a->b (e->a dropped with e); s2 and s3 have a->b and b->c.
	if csrs[0].NumEdges() != 1 || !hasLink(csrs[0], 0, 1) {
		t.Fatalf("aligned t1 edges wrong")
	}
	for k := 1; k < 3; k++ {
		if csrs[k].NumEdges() != 2 || !hasLink(csrs[k], 0, 1) || !hasLink(csrs[k], 1, 2) {
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
	for k, c := range al.CSRs() {
		if c.NumNodes() != 2 {
			t.Fatalf("graph %d has %d nodes, want 2", k, c.NumNodes())
		}
	}
	// At t1 "a" is node 2, the alias that claimed it last; both t1 links
	// point at node 0, which is not aligned, so none survives. At t2 only
	// b->a does (c is not common).
	csrs := al.CSRs()
	if csrs[0].NumEdges() != 0 {
		t.Fatalf("aligned t1 has %d edges, want 0", csrs[0].NumEdges())
	}
	if csrs[1].NumEdges() != 1 || !hasLink(csrs[1], 1, 0) {
		t.Fatalf("aligned t2 has %d edges, want only b->a", csrs[1].NumEdges())
	}
}

func TestPageRankSeries(t *testing.T) {
	al, err := Align(alignFixture())
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := al.PageRankSeries()
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

// growingSeries aligns k snapshots of one n-page graph that gains
// extra links per snapshot: the low-churn regime the chained solve is
// built for, with every page in every snapshot.
func growingSeries(t *testing.T, n, k, extra int) *Aligned {
	t.Helper()
	var snaps []Snapshot
	for s := 0; s < k; s++ {
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.MustAddPage(graph.Page{URL: fmt.Sprintf("p%05d", i)})
		}
		for i := 1; i < n; i++ {
			g.AddLink(graph.NodeID(i), graph.NodeID((i*7)%n))
		}
		for i := 0; i < s*extra; i++ {
			g.AddLink(graph.NodeID(i%n), graph.NodeID((i*13+1)%n))
		}
		snaps = append(snaps, Snapshot{Label: fmt.Sprintf("t%d", s), Time: float64(s), Graph: g})
	}
	al, err := Align(snaps)
	if err != nil {
		t.Fatal(err)
	}
	return al
}

// TestPageRankSeriesParallelDeterministic checks that the chained series
// does not depend on the schedule: under GOMAXPROCS 1, 2 and 4 it is
// bitwise identical, on a series wide enough (5,000 pages) that every
// solve splits its sweeps into several 2,048-node chunks.
func TestPageRankSeriesParallelDeterministic(t *testing.T) {
	al := growingSeries(t, 5000, 4, 40)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want [][]float64
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got, err := al.PageRankSeries()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		for k := range want {
			for i := range want[k] {
				if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
					t.Fatalf("GOMAXPROCS %d: snapshot %d rank[%d] = %g differs from %g",
						procs, k, i, got[k][i], want[k][i])
				}
			}
		}
	}
}

// chainedSeries is PageRankSeries under any variant: a cold solve of
// snapshot 0, then ComputeIncremental along each Diff.
func chainedSeries(t *testing.T, al *Aligned, opts pagerank.Options) [][]float64 {
	t.Helper()
	csrs := al.CSRs()
	res, err := pagerank.Compute(csrs[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	ranks := [][]float64{res.Rank}
	for k := 1; k < len(csrs); k++ {
		d, err := graph.Diff(csrs[k-1], csrs[k])
		if err != nil {
			t.Fatal(err)
		}
		inc, err := pagerank.ComputeIncremental(csrs[k], ranks[k-1], d, pagerank.IncrementalOptions{Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		ranks = append(ranks, inc.Rank)
	}
	return ranks
}

// TestPageRankSeriesMatchesIndependentSolves pins the chained series to
// an independent cold pagerank.Compute per snapshot: the same fixed
// points within the convergence tolerance. PageRankSeries is the paper
// variant of chainedSeries bit for bit; the standard variant is checked
// through the same chain.
func TestPageRankSeriesMatchesIndependentSolves(t *testing.T) {
	al := growingSeries(t, 40, 6, 5)
	series, err := al.PageRankSeries()
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []pagerank.Variant{pagerank.VariantPaper, pagerank.VariantStandard} {
		opts := pagerank.Options{Variant: variant}
		chained := chainedSeries(t, al, opts)
		for k, c := range al.CSRs() {
			full, err := pagerank.Compute(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range full.Rank {
				if d := math.Abs(chained[k][i] - full.Rank[i]); d > 1e-7 {
					t.Fatalf("variant %d: snapshot %d rank[%d] differs by %g (%g vs %g)",
						variant, k, i, d, chained[k][i], full.Rank[i])
				}
				if variant == pagerank.VariantPaper && math.Float64bits(series[k][i]) != math.Float64bits(chained[k][i]) {
					t.Fatalf("PageRankSeries snapshot %d rank[%d] = %g, chain gives %g", k, i, series[k][i], chained[k][i])
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
