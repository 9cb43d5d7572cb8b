package graph

import (
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
)

func cycleGraph(n int) *Graph {
	g := New(n)
	g.AddNodes(n)
	for i := 0; i < n; i++ {
		g.AddLink(NodeID(i), NodeID((i+1)%n))
	}
	return g
}

func TestSCCSingleCycle(t *testing.T) {
	c := Freeze(cycleGraph(10))
	comp, n := SCC(c)
	if n != 1 {
		t.Fatalf("components = %d, want 1", n)
	}
	for v, ci := range comp {
		if ci != 0 {
			t.Fatalf("node %d in component %d", v, ci)
		}
	}
}

func TestSCCChain(t *testing.T) {
	g := New(5)
	g.AddNodes(5)
	for i := 0; i < 4; i++ {
		g.AddLink(NodeID(i), NodeID(i+1))
	}
	comp, n := SCC(Freeze(g))
	if n != 5 {
		t.Fatalf("components = %d, want 5 (each node its own)", n)
	}
	// Tarjan emits components in reverse topological order: the sink (node
	// 4) is finished first.
	if comp[4] != 0 {
		t.Fatalf("sink component = %d, want 0", comp[4])
	}
	for i := 0; i < 4; i++ {
		if comp[i] <= comp[i+1] {
			t.Fatalf("components not reverse-topological: comp[%d]=%d comp[%d]=%d",
				i, comp[i], i+1, comp[i+1])
		}
	}
}

func TestSCCTwoCyclesBridged(t *testing.T) {
	g := New(6)
	g.AddNodes(6)
	// cycle A: 0->1->2->0, cycle B: 3->4->5->3, bridge 2->3.
	g.AddLink(0, 1)
	g.AddLink(1, 2)
	g.AddLink(2, 0)
	g.AddLink(3, 4)
	g.AddLink(4, 5)
	g.AddLink(5, 3)
	g.AddLink(2, 3)
	comp, n := SCC(Freeze(g))
	if n != 2 {
		t.Fatalf("components = %d, want 2", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("cycle A split")
	}
	if comp[3] != comp[4] || comp[4] != comp[5] {
		t.Fatal("cycle B split")
	}
	if comp[0] == comp[3] {
		t.Fatal("cycles merged")
	}
}

func TestSCCEmptyAndSingleton(t *testing.T) {
	g := New(0)
	if _, n := SCC(Freeze(g)); n != 0 {
		t.Fatalf("empty graph components = %d", n)
	}
	g = New(1)
	g.AddNodes(1)
	if _, n := SCC(Freeze(g)); n != 1 {
		t.Fatalf("singleton components = %d", n)
	}
}

func TestSCCDeepChainNoOverflow(t *testing.T) {
	// A 200k-node path would overflow a recursive Tarjan; the iterative one
	// must survive.
	const n = 200_000
	g := New(n)
	g.AddNodes(n)
	for i := 0; i < n-1; i++ {
		g.AddLink(NodeID(i), NodeID(i+1))
	}
	_, nc := SCC(Freeze(g))
	if nc != n {
		t.Fatalf("components = %d, want %d", nc, n)
	}
}

func TestBowTieRecoversGeneratedRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := BowTieConfig{Core: 50, In: 30, Out: 40, Tendrils: 20, AvgDegree: 3}
	g, err := GenerateBowTie(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	res := BowTie(Freeze(g))
	if got := res.Counts[RegionCore]; got != cfg.Core {
		t.Fatalf("CORE = %d, want %d", got, cfg.Core)
	}
	if got := res.Counts[RegionIn]; got != cfg.In {
		t.Fatalf("IN = %d, want %d", got, cfg.In)
	}
	if got := res.Counts[RegionOut]; got != cfg.Out {
		t.Fatalf("OUT = %d, want %d", got, cfg.Out)
	}
	if got := res.Counts[RegionTendril]; got != cfg.Tendrils {
		t.Fatalf("TENDRIL = %d, want %d", got, cfg.Tendrils)
	}
	// Region labels align with node layout: first Core nodes are CORE.
	for v := 0; v < cfg.Core; v++ {
		if res.Region[v] != RegionCore {
			t.Fatalf("node %d region = %v, want CORE", v, res.Region[v])
		}
	}
}

func TestBowTieDisconnected(t *testing.T) {
	g := New(5)
	g.AddNodes(5)
	g.AddLink(0, 1)
	g.AddLink(1, 0) // core = {0,1}
	// nodes 2,3,4 isolated
	res := BowTie(Freeze(g))
	if res.Counts[RegionCore] != 2 {
		t.Fatalf("CORE = %d", res.Counts[RegionCore])
	}
	if res.Counts[RegionDisconnected] != 3 {
		t.Fatalf("DISCONNECTED = %d", res.Counts[RegionDisconnected])
	}
}

func TestRegionString(t *testing.T) {
	cases := map[Region]string{
		RegionCore: "CORE", RegionIn: "IN", RegionOut: "OUT",
		RegionTendril: "TENDRIL", RegionDisconnected: "DISCONNECTED",
	}
	for r, want := range cases {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
	if Region(99).String() == "" {
		t.Error("unknown region String empty")
	}
}

func TestPowerLawAlphaOnSyntheticTail(t *testing.T) {
	// Draw from a discrete power law with alpha=2.5 via inverse transform
	// on a continuous Pareto, then round.
	rng := rand.New(rand.NewSource(9))
	const alphaTrue = 2.5
	degs := make([]int, 20000)
	for i := range degs {
		u := rng.Float64()
		x := 1.0 / math.Pow(u, 1.0/(alphaTrue-1))
		degs[i] = int(x)
	}
	alpha, n := PowerLawAlpha(degs, 2)
	if n < 1000 {
		t.Fatalf("tail size %d too small", n)
	}
	if alpha < 2.1 || alpha > 2.9 {
		t.Fatalf("alpha = %.3f, want ~2.5", alpha)
	}
}

func TestPowerLawAlphaDegenerate(t *testing.T) {
	if a, n := PowerLawAlpha(nil, 1); a != 0 || n != 0 {
		t.Fatalf("empty input -> (%v,%d)", a, n)
	}
	if a, n := PowerLawAlpha([]int{0, 0}, 1); a != 0 || n != 0 {
		t.Fatalf("all-below-kmin -> (%v,%d)", a, n)
	}
	// kmin < 1 is clamped to 1.
	if _, n := PowerLawAlpha([]int{2, 3}, 0); n != 2 {
		t.Fatal("kmin clamp failed")
	}
}

// TestBowTieBitsPinned pins BowTie's region vector (CRC32 over one byte
// per node) and Reciprocity's bits on a generated bow tie with three
// extra disconnected nodes, so every region and both BFS directions are
// covered.
func TestBowTieBitsPinned(t *testing.T) {
	g, err := GenerateBowTie(BowTieConfig{Core: 60, In: 25, Out: 35, Tendrils: 14, AvgDegree: 4}, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	first := NodeID(g.NumNodes())
	g.AddNodes(3)
	g.AddLink(first, first+1)
	c := Freeze(g)
	res := BowTie(c)
	region := make([]byte, len(res.Region))
	for v, r := range res.Region {
		region[v] = byte(r)
	}
	const (
		wantRegionCRC   = uint32(0xc4bfe305)
		wantReciprocity = uint64(0x3f94cab88725af6e)
	)
	if got := crc32.ChecksumIEEE(region); got != wantRegionCRC {
		t.Errorf("region crc %#08x, want %#08x (counts %v)", got, wantRegionCRC, res.Counts)
	}
	if got := math.Float64bits(Reciprocity(c)); got != wantReciprocity {
		t.Errorf("reciprocity bits %#016x (%g), want %#016x", got, Reciprocity(c), wantReciprocity)
	}
}
