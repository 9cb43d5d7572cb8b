package graph

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestAddPageAndLookup(t *testing.T) {
	g := New(4)
	a, err := g.AddPage(Page{URL: "http://a/", Site: 0, Quality: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	b := g.MustAddPage(Page{URL: "http://b/", Site: 1})
	if a == b {
		t.Fatal("duplicate node ids")
	}
	if id, ok := g.Lookup("http://a/"); !ok || id != a {
		t.Fatalf("Lookup(a) = (%d,%v)", id, ok)
	}
	if _, ok := g.Lookup("http://missing/"); ok {
		t.Fatal("Lookup found missing URL")
	}
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if got := g.Page(a); got.URL != "http://a/" || got.Quality != 0.5 {
		t.Fatalf("Page(a) = %+v", got)
	}
}

func TestDuplicateURLRejected(t *testing.T) {
	g := New(2)
	g.MustAddPage(Page{URL: "u"})
	if _, err := g.AddPage(Page{URL: "u"}); !errors.Is(err, ErrDuplicateURL) {
		t.Fatalf("err = %v, want ErrDuplicateURL", err)
	}
}

func TestEmptyURLsNotIndexed(t *testing.T) {
	g := New(2)
	g.MustAddPage(Page{})
	g.MustAddPage(Page{}) // second empty URL must not collide
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
}

func TestAddLinkSemantics(t *testing.T) {
	g := New(3)
	g.AddNodes(3)
	if !g.AddLink(0, 1) {
		t.Fatal("AddLink(0,1) = false")
	}
	if g.AddLink(0, 1) {
		t.Fatal("duplicate AddLink accepted")
	}
	if g.AddLink(2, 2) {
		t.Fatal("self link accepted")
	}
	if !g.HasLink(0, 1) || g.HasLink(1, 0) {
		t.Fatal("HasLink direction wrong")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if g.OutDegree(0) != 1 || g.InDegree(1) != 1 || g.InDegree(0) != 0 {
		t.Fatal("degree bookkeeping wrong")
	}
}

func TestRemoveLink(t *testing.T) {
	g := New(3)
	g.AddNodes(3)
	g.AddLink(0, 1)
	g.AddLink(0, 2)
	g.RemoveLink(0, 1)
	g.RemoveLink(0, 1) // a missing link: no-op
	if g.HasLink(0, 1) || !g.HasLink(0, 2) {
		t.Fatal("wrong link removed")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveInLinkAtMatchesRemoveLink removes each in-list entry in turn,
// the last one included, and requires the returned source and the
// in-list order RemoveLink leaves.
func TestRemoveInLinkAtMatchesRemoveLink(t *testing.T) {
	const to = NodeID(0)
	base := New(8)
	base.AddNodes(8)
	for _, from := range []NodeID{5, 2, 7, 1, 4} {
		base.AddLink(from, to)
	}
	base.AddLink(3, 6)
	for i, want := range base.InLinks(to) {
		ref, got := base.Clone(), base.Clone()
		ref.RemoveLink(want, to)
		if from := got.RemoveInLinkAt(to, i); from != want {
			t.Fatalf("RemoveInLinkAt(%d) = %d, want %d", i, from, want)
		}
		if a, b := got.InLinks(to), ref.InLinks(to); !slices.Equal(a, b) {
			t.Fatalf("RemoveInLinkAt(%d) left %v, RemoveLink %v", i, a, b)
		}
		if a, b := got.InLinks(6), ref.InLinks(6); !slices.Equal(a, b) {
			t.Fatalf("RemoveInLinkAt(%d) touched another in-list: %v vs %v", i, a, b)
		}
	}
}

// TestTwoPhaseEditsMatchOneAtATime applies random edit batches two ways —
// AddLink/RemoveLink one at a time in page order, and the in-halves of
// each page's edits followed by CommitOut in page order — and requires
// byte-identical AppendBinary. A batch holds, per target page, link
// attempts (among them self-links and duplicates), removals of a drawn
// in-list entry, and removals that re-add the removed source. The
// two-phase side decides existence the way the corpus draw pass does:
// the page's own newest edit naming the source, else the batch-start
// out-list. Its in-halves run on four goroutines that own distinct pages,
// so -race checks the ownership rule.
func TestTwoPhaseEditsMatchOneAtATime(t *testing.T) {
	type op struct {
		kind int // 0: link from; 1: remove entry r; 2: remove entry r, then re-add its source
		from NodeID
		r    int
	}
	type edit struct {
		from, to NodeID
		add      bool
	}
	const n, workers = 30, 4
	rng := rand.New(rand.NewSource(11))
	var selfs, dups, readds int
	for round := 0; round < 40; round++ {
		base := New(n)
		base.AddNodes(n)
		for i := 0; i < 120; i++ {
			base.AddLink(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		batch := make([][]op, n)
		for p := range batch {
			for k := rng.Intn(6); k > 0; k-- {
				o := op{kind: rng.Intn(3), from: NodeID(rng.Intn(n)), r: rng.Intn(1 << 20)}
				switch rng.Intn(4) {
				case 0:
					o.from = NodeID(p)
				case 1:
					if in := base.InLinks(NodeID(p)); len(in) > 0 {
						o.from = in[0]
					}
				}
				batch[p] = append(batch[p], o)
			}
		}

		ref := base.Clone()
		for p, ops := range batch {
			to := NodeID(p)
			for _, o := range ops {
				if o.kind == 0 {
					if !ref.AddLink(o.from, to) {
						if o.from == to {
							selfs++
						} else {
							dups++
						}
					}
					continue
				}
				in := ref.InLinks(to)
				if len(in) == 0 {
					continue
				}
				from := in[o.r%len(in)]
				ref.RemoveLink(from, to)
				if o.kind == 2 {
					ref.AddLink(from, to)
					readds++
				}
			}
		}

		two := base.Clone()
		edits := make([][]edit, n)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p := w; p < n; p += workers {
					to := NodeID(p)
					var own []edit
					link := func(from NodeID) {
						if from == to {
							return
						}
						linked := two.HasLink(from, to)
						for i := len(own) - 1; i >= 0; i-- {
							if own[i].from == from {
								linked = own[i].add
								break
							}
						}
						if !linked {
							two.AddInLink(from, to)
							own = append(own, edit{from, to, true})
						}
					}
					for _, o := range batch[p] {
						if o.kind == 0 {
							link(o.from)
							continue
						}
						deg := two.InDegree(to)
						if deg == 0 {
							continue
						}
						from := two.RemoveInLinkAt(to, o.r%deg)
						own = append(own, edit{from, to, false})
						if o.kind == 2 {
							link(from)
						}
					}
					edits[p] = own
				}
			}()
		}
		wg.Wait()
		for _, own := range edits {
			for _, e := range own {
				two.CommitOut(e.from, e.to, e.add)
			}
		}
		if err := two.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !bytes.Equal(two.AppendBinary(nil), ref.AppendBinary(nil)) {
			t.Fatalf("round %d: two-phase edits differ from AddLink/RemoveLink", round)
		}
	}
	if selfs == 0 || dups == 0 || readds == 0 {
		t.Fatalf("batches missed a case: %d self-links, %d duplicates, %d re-adds", selfs, dups, readds)
	}
}

func TestSetPageRekeysURL(t *testing.T) {
	g := New(1)
	id := g.MustAddPage(Page{URL: "old"})
	g.SetPage(id, Page{URL: "new"})
	if _, ok := g.Lookup("old"); ok {
		t.Fatal("old URL still indexed")
	}
	if got, ok := g.Lookup("new"); !ok || got != id {
		t.Fatal("new URL not indexed")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New(3)
	g.MustAddPage(Page{URL: "a"})
	g.MustAddPage(Page{URL: "b"})
	g.AddLink(0, 1)
	c := g.Clone()
	c.AddLink(1, 0)
	c.MustAddPage(Page{URL: "c"})
	if g.HasLink(1, 0) {
		t.Fatal("clone mutation leaked into original")
	}
	if g.NumNodes() != 2 || c.NumNodes() != 3 {
		t.Fatal("node counts wrong after clone mutation")
	}
	if _, ok := g.Lookup("c"); ok {
		t.Fatal("clone URL index shared")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Clone packs all adjacency lists into one backing array; an append on one
// of the clone's lists must reallocate that list rather than overwrite the
// adjacent list's region.
func TestClonePackedListsDoNotAlias(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		g.MustAddPage(Page{URL: string(rune('a' + i))})
	}
	g.AddLink(0, 1)
	g.AddLink(2, 1)
	g.AddLink(1, 3)
	c := g.Clone()
	// Grow every list on the clone; if regions aliased, a neighbour's
	// contents would be clobbered and Validate's in/out cross-check fails.
	c.AddLink(0, 2)
	c.AddLink(0, 3)
	c.AddLink(3, 1)
	if err := c.Validate(); err != nil {
		t.Fatalf("clone corrupted after appends: %v", err)
	}
	if !c.HasLink(2, 1) || !c.HasLink(1, 3) || !c.HasLink(0, 1) {
		t.Fatal("pre-existing links lost after clone appends")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("original corrupted: %v", err)
	}
}

// TestFreezeSubgraph: the CSR of the graph a 4-cycle induces on three of
// its pages, numbered in keep's order, keeps the two links inside them.
func TestFreezeSubgraph(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		g.MustAddPage(Page{URL: string(rune('a' + i))})
	}
	g.AddLink(0, 1)
	g.AddLink(1, 2)
	g.AddLink(2, 3)
	g.AddLink(3, 0)
	sub := FreezeSubgraph(g, []NodeID{2, 0, 1})
	if sub.NumNodes() != 3 {
		t.Fatalf("sub nodes = %d", sub.NumNodes())
	}
	// Edges 2->3 and 3->0 must be dropped.
	if sub.NumEdges() != 2 {
		t.Fatalf("sub edges = %d, want 2", sub.NumEdges())
	}
	for i, want := range [][2][]NodeID{{nil, {2}}, {{2}, nil}, {{0}, {1}}} {
		id := NodeID(i)
		if !slices.Equal(sub.Out(id), want[0]) || !slices.Equal(sub.In(id), want[1]) {
			t.Fatalf("node %d: out %v in %v, want %v %v", i, sub.Out(id), sub.In(id), want[0], want[1])
		}
	}
	if d := sub.Danglings(); !slices.Equal(d, []NodeID{0}) {
		t.Fatalf("danglings %v, want [0]", d)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := New(2)
	g.AddNodes(2)
	g.AddLink(0, 1)
	g.out[0] = append(g.out[0], 1) // duplicate injected behind the API
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted duplicate edge")
	}
}

func TestCSRMirrorsGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := GenerateUniform(200, 1500, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := Freeze(g)
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatalf("CSR sizes (%d,%d) != graph (%d,%d)",
			c.NumNodes(), c.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for i := 0; i < g.NumNodes(); i++ {
		id := NodeID(i)
		if len(c.Out(id)) != g.OutDegree(id) || c.OutDegree(id) != g.OutDegree(id) {
			t.Fatalf("node %d out mismatch", i)
		}
		if len(c.In(id)) != g.InDegree(id) || c.InDegree(id) != g.InDegree(id) {
			t.Fatalf("node %d in mismatch", i)
		}
		for k, to := range g.OutLinks(id) {
			if c.Out(id)[k] != to {
				t.Fatalf("node %d out[%d] mismatch", i, k)
			}
		}
	}
}

func TestCSRIndependentOfLaterMutation(t *testing.T) {
	g := New(2)
	g.AddNodes(2)
	g.AddLink(0, 1)
	c := Freeze(g)
	g.RemoveLink(0, 1)
	if c.NumEdges() != 1 || len(c.Out(0)) != 1 {
		t.Fatal("CSR changed after graph mutation")
	}
}

func TestCSRDanglings(t *testing.T) {
	g := New(3)
	g.AddNodes(3)
	g.AddLink(0, 1)
	g.AddLink(0, 2)
	d := Freeze(g).Danglings()
	if len(d) != 2 || d[0] != 1 || d[1] != 2 {
		t.Fatalf("Danglings = %v, want [1 2]", d)
	}
}

func TestPreferentialAttachmentShape(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g, err := GeneratePreferentialAttachment(PreferentialAttachmentConfig{
		Nodes: 3000, OutPerNode: 4,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3000 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Roughly 4 links per non-seed node.
	if e := g.NumEdges(); e < 3000*3 || e > 3000*5 {
		t.Fatalf("edges = %d out of expected range", e)
	}
	c := Freeze(g)
	// The in-degree distribution must be heavy-tailed: the max in-degree
	// should far exceed the mean.
	degs := Degrees(c, true)
	maxDeg, sum := 0, 0
	for _, d := range degs {
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(sum) / float64(len(degs))
	if float64(maxDeg) < 8*mean {
		t.Fatalf("max in-degree %d not heavy-tailed (mean %.1f)", maxDeg, mean)
	}
	// MLE exponent for BA graphs is typically in (1.5, 3.5).
	alpha, n := PowerLawAlpha(degs, 4)
	if n < 100 {
		t.Fatalf("power-law tail too small: %d", n)
	}
	if alpha < 1.2 || alpha > 4.5 {
		t.Fatalf("alpha = %.2f outside plausible range", alpha)
	}
}

func TestPreferentialAttachmentConfigErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := GeneratePreferentialAttachment(PreferentialAttachmentConfig{Nodes: 10, OutPerNode: 0}, rng); err == nil {
		t.Fatal("accepted OutPerNode=0")
	}
	if _, err := GeneratePreferentialAttachment(PreferentialAttachmentConfig{Nodes: 2, OutPerNode: 5}, rng); err == nil {
		t.Fatal("accepted Nodes < Seed")
	}
}

func TestCopyModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, err := GenerateCopyModel(2000, 3, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	c := Freeze(g)
	degs := Degrees(c, true)
	maxDeg := 0
	for _, d := range degs {
		if d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 20 {
		t.Fatalf("copy model not heavy-tailed: max in-degree %d", maxDeg)
	}
	if _, err := GenerateCopyModel(10, 2, 1.5, rng); err == nil {
		t.Fatal("accepted beta > 1")
	}
	if _, err := GenerateCopyModel(1, 2, 0.5, rng); err == nil {
		t.Fatal("accepted nodes < 2")
	}
}

func TestGenerateUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := GenerateUniform(50, 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 300 {
		t.Fatalf("edges = %d, want 300", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateUniform(3, 100, rng); err == nil {
		t.Fatal("accepted impossible edge count")
	}
}

func TestQualityNaNRoundTrip(t *testing.T) {
	g := New(1)
	g.MustAddPage(Page{URL: "x", Quality: math.NaN()})
	buf := g.AppendBinary(nil)
	g2, _, err := DecodeBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(g2.Page(0).Quality) {
		t.Fatal("NaN quality lost in round trip")
	}
}
