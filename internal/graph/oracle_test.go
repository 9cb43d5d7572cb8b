package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// The oracles below are the graph builders as they were before the
// decoder, FreezeSubgraph and Diff filled packed rows directly: every edge
// goes through AddLink (and its HasLink scan), the subgraph remaps through
// a map and is frozen afterwards, and Diff builds two sets per changed
// row. The production versions must return exactly what these return.

// decodeOracle parses a checksum-verified payload one AddLink at a time.
func decodeOracle(payload []byte) (*Graph, error) {
	br := bytes.NewReader(payload)
	nodes, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph: node count: %w", err)
	}
	edges, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph: edge count: %w", err)
	}
	if nodes > uint64(len(payload)) {
		return nil, fmt.Errorf("%w: implausible node count %d", ErrBadFormat, nodes)
	}
	g := New(int(nodes))
	var fbuf [8]byte
	readFloat := func() (float64, error) {
		if _, err := io.ReadFull(br, fbuf[:]); err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(fbuf[:])), nil
	}
	for i := uint64(0); i < nodes; i++ {
		ulen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if ulen > MaxURLLen {
			return nil, fmt.Errorf("%w: url length %d", ErrBadFormat, ulen)
		}
		urlBytes := make([]byte, ulen)
		if _, err := io.ReadFull(br, urlBytes); err != nil {
			return nil, err
		}
		site, err := binary.ReadVarint(br)
		if err != nil {
			return nil, err
		}
		created, err := readFloat()
		if err != nil {
			return nil, err
		}
		quality, err := readFloat()
		if err != nil {
			return nil, err
		}
		if _, err := g.AddPage(Page{URL: string(urlBytes), Site: int32(site), Created: created, Quality: quality}); err != nil {
			return nil, err
		}
	}
	for i := uint64(0); i < nodes; i++ {
		deg, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if deg > nodes {
			return nil, fmt.Errorf("%w: degree %d > nodes %d", ErrBadFormat, deg, nodes)
		}
		prev := uint64(0)
		for k := uint64(0); k < deg; k++ {
			d, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			to := prev + d
			prev = to
			if to >= nodes {
				return nil, fmt.Errorf("%w: edge target %d out of range", ErrBadFormat, to)
			}
			if !g.AddLink(NodeID(i), NodeID(to)) {
				return nil, fmt.Errorf("%w: duplicate or self edge %d->%d", ErrBadFormat, i, to)
			}
		}
	}
	if uint64(g.NumEdges()) != edges {
		return nil, fmt.Errorf("%w: edge count %d, header says %d", ErrBadFormat, g.NumEdges(), edges)
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrBadFormat, br.Len())
	}
	return g, nil
}

// subgraphOracle is the graph g induces on keep, built through an old→new
// map and AddLink, one kept row after the other.
func subgraphOracle(g *Graph, keep []NodeID) *Graph {
	remap := make(map[NodeID]NodeID, len(keep))
	sub := New(len(keep))
	for _, old := range keep {
		remap[old] = sub.MustAddPage(g.pages[old])
	}
	for _, old := range keep {
		from := remap[old]
		for _, t := range g.out[old] {
			if to, ok := remap[t]; ok {
				sub.AddLink(from, to)
			}
		}
	}
	return sub
}

// diffOracle is Diff with two sets per changed row.
func diffOracle(old, cur *CSR) *Delta {
	d := &Delta{OldNodes: old.NumNodes(), NewNodes: cur.NumNodes()}
	for i := 0; i < d.OldNodes; i++ {
		id := NodeID(i)
		or, nr := old.Out(id), cur.Out(id)
		if slices.Equal(or, nr) {
			continue
		}
		os := make(map[NodeID]bool, len(or))
		for _, t := range or {
			os[t] = true
		}
		ns := make(map[NodeID]bool, len(nr))
		for _, t := range nr {
			ns[t] = true
		}
		for _, t := range nr {
			if !os[t] {
				d.Added = append(d.Added, Edge{From: id, To: t})
			}
		}
		for _, t := range or {
			if !ns[t] {
				d.Removed = append(d.Removed, Edge{From: id, To: t})
			}
		}
	}
	for i := d.OldNodes; i < d.NewNodes; i++ {
		for _, t := range cur.Out(NodeID(i)) {
			d.Added = append(d.Added, Edge{From: NodeID(i), To: t})
		}
	}
	return d
}

// churnedGraph builds a random graph whose rows are out of order and
// whose in-lists were reshuffled by removals: pages with and without
// URLs, NaN qualities, links added, some removed, more added.
func churnedGraph(rng *rand.Rand, n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		p := Page{Site: int32(rng.Intn(7)) - 1, Created: rng.Float64() * 10, Quality: rng.Float64()}
		if rng.Intn(8) != 0 {
			p.URL = fmt.Sprintf("http://s%d.example/p%d", rng.Intn(5), i)
		}
		if rng.Intn(10) == 0 {
			p.Quality = math.NaN()
		}
		g.MustAddPage(p)
	}
	churn(rng, g, 4*n, n)
	return g
}

// churn adds about add random links to g and removes about remove.
func churn(rng *rand.Rand, g *Graph, add, remove int) {
	n := g.NumNodes()
	if n < 2 {
		return
	}
	for k := 0; k < add; k++ {
		g.AddLink(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	for k := 0; k < remove; k++ {
		from := NodeID(rng.Intn(n))
		if out := g.OutLinks(from); len(out) > 0 {
			g.RemoveLink(from, out[rng.Intn(len(out))])
		}
	}
}

// sameGraph fails t unless a and b hold the same pages (Float64bits),
// the same out- and in-lists element for element, the same edge count
// and the same URL index.
func sameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("%d nodes, %d edges; want %d, %d", a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	for i := 0; i < a.NumNodes(); i++ {
		id := NodeID(i)
		pa, pb := a.Page(id), b.Page(id)
		if pa.URL != pb.URL || pa.Site != pb.Site ||
			math.Float64bits(pa.Created) != math.Float64bits(pb.Created) ||
			math.Float64bits(pa.Quality) != math.Float64bits(pb.Quality) {
			t.Fatalf("page %d = %+v, want %+v", i, pa, pb)
		}
		if !slices.Equal(a.OutLinks(id), b.OutLinks(id)) || !slices.Equal(a.InLinks(id), b.InLinks(id)) {
			t.Fatalf("node %d: out %v in %v, want out %v in %v",
				i, a.OutLinks(id), a.InLinks(id), b.OutLinks(id), b.InLinks(id))
		}
		ga, oka := a.Lookup(pa.URL)
		gb, okb := b.Lookup(pb.URL)
		if ga != gb || oka != okb {
			t.Fatalf("Lookup(%q) = %d, %v; want %d, %v", pa.URL, ga, oka, gb, okb)
		}
	}
}

// payloadOf returns the checksummed payload of an AppendBinary encoding.
func payloadOf(buf []byte) []byte { return buf[12 : len(buf)-4] }

// reframe wraps payload in a header and a valid checksum.
func reframe(payload []byte) []byte {
	buf := append([]byte(nil), graphMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

// TestDecodeMatchesAddLinkOracle holds DecodeBinary to the AddLink
// decoder: every genuine encoding decodes to the same pages, rows and
// in-list order, and a payload corrupted behind a valid checksum is
// accepted or rejected by both, identically when accepted.
func TestDecodeMatchesAddLinkOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 60; trial++ {
		g := churnedGraph(rng, 1+rng.Intn(80))
		buf := g.AppendBinary(nil)
		want, err := decodeOracle(payloadOf(buf))
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := DecodeBinary(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("trial %d: consumed %d of %d: %v", trial, n, len(buf), err)
		}
		sameGraph(t, got, want)

		// Corrupt one byte past the two count varints and re-checksum.
		payload := payloadOf(buf)
		head := len(binary.AppendUvarint(binary.AppendUvarint(nil, uint64(g.NumNodes())), uint64(g.NumEdges())))
		for k := 0; k < 20 && head < len(payload); k++ {
			p := append([]byte(nil), payload...)
			p[head+rng.Intn(len(p)-head)] ^= byte(1 << rng.Intn(8))
			want, werr := decodeOracle(p)
			got, _, gerr := DecodeBinary(reframe(p))
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("trial %d flip %d: DecodeBinary error %v, oracle error %v", trial, k, gerr, werr)
			}
			if gerr == nil {
				sameGraph(t, got, want)
			}
		}
	}
}

// sameCSR fails t unless a and b hold the same rows and in-lists, element
// for element and in order, and the same out-degrees and their inverses
// (Float64bits).
func sameCSR(t *testing.T, a, b *CSR) {
	t.Helper()
	if a.n != b.n || !slices.Equal(a.outOff, b.outOff) || !slices.Equal(a.outTo, b.outTo) ||
		!slices.Equal(a.inOff, b.inOff) || !slices.Equal(a.inFrom, b.inFrom) || !slices.Equal(a.outDegs, b.outDegs) {
		t.Fatalf("CSR differs:\n got out %v %v in %v %v\nwant out %v %v in %v %v",
			a.outOff, a.outTo, a.inOff, a.inFrom, b.outOff, b.outTo, b.inOff, b.inFrom)
	}
	for i := range a.invOut {
		if math.Float64bits(a.invOut[i]) != math.Float64bits(b.invOut[i]) {
			t.Fatalf("1/out-degree of node %d = %v, want %v", i, a.invOut[i], b.invOut[i])
		}
	}
}

// TestFreezeSubgraphMatchesOracle holds FreezeSubgraph to Freeze of the
// map-based subgraph over churned graphs and random keep permutations:
// rows, in-list order, degrees and their inverses. Churned in-lists are
// in the order links were added and removed, not in transpose order, and
// the test checks that some trials' are, so a FreezeSubgraph that copied
// g's in-lists instead of transposing the rows would fail.
func TestFreezeSubgraphMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	reordered := 0
	for trial := 0; trial < 60; trial++ {
		g := churnedGraph(rng, 1+rng.Intn(120))
		perm := rng.Perm(g.NumNodes())
		keep := make([]NodeID, rng.Intn(g.NumNodes()+1))
		for i := range keep {
			keep[i] = NodeID(perm[i])
		}
		sub := subgraphOracle(g, keep)
		if err := sub.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameCSR(t, FreezeSubgraph(g, keep), Freeze(sub))

		remap := make(map[NodeID]NodeID, len(keep))
		for i, old := range keep {
			remap[old] = NodeID(i)
		}
		for i, old := range keep {
			var copied []NodeID
			for _, from := range g.InLinks(old) {
				if f, ok := remap[from]; ok {
					copied = append(copied, f)
				}
			}
			if !slices.Equal(copied, sub.InLinks(NodeID(i))) {
				reordered++
				break
			}
		}
	}
	if reordered == 0 {
		t.Fatal("no trial's in-lists differ from the transpose: copying them would pass")
	}
}

// TestDiffMatchesMapOracle holds Diff to the map-based one: the same
// Added and Removed slices, in the same order, across churn and growth.
func TestDiffMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 60; trial++ {
		g := churnedGraph(rng, 1+rng.Intn(100))
		old := Freeze(g)
		for k := rng.Intn(5); k > 0; k-- {
			g.MustAddPage(Page{})
		}
		churn(rng, g, rng.Intn(3*g.NumNodes()), rng.Intn(g.NumNodes()))
		cur := Freeze(g)
		for _, pair := range [][2]*CSR{{old, cur}, {old, old}} {
			got, err := Diff(pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if want := diffOracle(pair[0], pair[1]); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d:\n got %+v\nwant %+v", trial, got, want)
			}
		}
	}
}
