package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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

	// Snapshot 0's graph fails its own checksum and snapshot 1's header
	// is cut inside its time, behind a valid store checksum: the headers
	// are walked before any graph decodes, yet the lower-numbered failure
	// is the one reported, as a serial read reports it.
	two, err := Encode([]Snapshot{{Label: "t1", Time: 1, Graph: chain(4)}, {Label: "t2", Time: 2, Graph: chain(4)}})
	if err != nil {
		t.Fatal(err)
	}
	blob := chain(4).AppendBinary(nil)
	rec0 := 1 + len("t1") + 8 + len(binary.AppendUvarint(nil, uint64(len(blob)))) + len(blob)
	body := append([]byte(nil), two[4:4+4+rec0+1+len("t2")+3]...)
	body[4+rec0-1] ^= 0xff // the last byte of snapshot 0's graph checksum
	if _, err := Decode(frame(body)); !errors.Is(err, ErrBadStore) || !strings.Contains(err.Error(), "snapshot 0 graph") {
		t.Fatalf("err = %v, want snapshot 0's graph reported", err)
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

// TestWriteFileAtomicFailure: when the rename cannot happen — the target
// is a directory — writeFileAtomic fails, the target is untouched and no
// temporary file is left in the directory.
func TestWriteFileAtomicFailure(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "web.pqs")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	inside := filepath.Join(target, "keep")
	if err := os.WriteFile(inside, []byte("kept"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(target, []byte("new bytes")); err == nil {
		t.Fatal("writeFileAtomic replaced a directory")
	}
	if st, err := os.Stat(target); err != nil || !st.IsDir() {
		t.Fatalf("target is no longer the directory: %v", err)
	}
	if got, err := os.ReadFile(inside); err != nil || string(got) != "kept" {
		t.Fatalf("directory contents changed: %q, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "web.pqs" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v after the failed write, want only the target", names)
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.pqs")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestAppendFile: a missing file becomes a one-snapshot store, and a
// week that is not finite or does not strictly follow the last stored
// one, or a label the store holds, is refused without touching the file.
func TestAppendFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "web.pqs")
	if _, err := AppendFile(path, Snapshot{Label: "t1", Time: math.NaN(), Graph: chain(3)}); err == nil {
		t.Fatal("week NaN accepted into a missing file")
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("refused week NaN created the file (%v)", err)
	}
	if total, err := AppendFile(path, Snapshot{Label: "t1", Time: 4, Graph: chain(3)}); err != nil || total != 1 {
		t.Fatalf("append to a missing file: total %d, %v; want 1", total, err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label string
		week  float64
	}{
		{"t2", 4}, // equal
		{"t2", 0}, // earlier
		{"t2", math.NaN()},
		{"t2", math.Inf(1)},
		{"t2", math.Inf(-1)},
		{"t1", 8}, // a stored label at a later week
	} {
		if total, err := AppendFile(path, Snapshot{Label: c.label, Time: c.week, Graph: chain(3)}); err == nil {
			t.Fatalf("%s at week %g after t1 at week 4 accepted: total %d", c.label, c.week, total)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("refused %s at week %g changed the file", c.label, c.week)
		}
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
// extra links per snapshot, with every page in every snapshot.
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

// TestPageRankSeriesParallelDeterministic checks that the series
// does not depend on the schedule: under GOMAXPROCS 1, 2 and 4 — the
// snapshots solved inline, then two or four side by side — it is
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

// TestPageRankSeriesMatchesIndependentSolves pins the series to an
// independent cold pagerank.Compute per snapshot, bit for bit, on 400
// pages whose every crawl adds five links to the one before: churn low
// enough that a solve warm-started from the previous crawl would differ
// in the last bits.
func TestPageRankSeriesMatchesIndependentSolves(t *testing.T) {
	al := growingSeries(t, 400, 6, 5)
	series, err := al.PageRankSeries()
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range al.CSRs() {
		cold, err := pagerank.Compute(c, pagerank.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range cold.Rank {
			if math.Float64bits(series[k][i]) != math.Float64bits(v) {
				t.Fatalf("snapshot %d rank[%d] = %g, cold Compute gives %g", k, i, series[k][i], v)
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
