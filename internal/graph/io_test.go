package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func graphsEqual(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for i := 0; i < a.NumNodes(); i++ {
		id := NodeID(i)
		pa, pb := a.Page(id), b.Page(id)
		// NaN != NaN, compare bit-wise via reflect on non-NaN fields.
		if pa.URL != pb.URL || pa.Site != pb.Site || pa.Created != pb.Created { //pqlint:allow floateq round-trip parity check; Created must survive encoding bit-for-bit
			return false
		}
		if (pa.Quality == pa.Quality) != (pb.Quality == pb.Quality) { //pqlint:allow floateq NaN self-comparison distinguishes NaN from numbers in the parity check
			return false
		}
		if pa.Quality == pa.Quality && pa.Quality != pb.Quality { //pqlint:allow floateq round-trip parity check; Quality must survive encoding bit-for-bit
			return false
		}
		oa := append([]NodeID(nil), a.OutLinks(id)...)
		ob := append([]NodeID(nil), b.OutLinks(id)...)
		sortNodeIDs(oa)
		sortNodeIDs(ob)
		if !reflect.DeepEqual(oa, ob) && !(len(oa) == 0 && len(ob) == 0) {
			return false
		}
	}
	return true
}

func TestRoundTripSmall(t *testing.T) {
	g := New(3)
	g.MustAddPage(Page{URL: "http://a/", Site: 0, Created: 1, Quality: 0.25})
	g.MustAddPage(Page{URL: "http://b/", Site: 1, Created: 2.5, Quality: 0.75})
	g.MustAddPage(Page{URL: "", Site: -1})
	g.AddLink(0, 1)
	g.AddLink(1, 0)
	g.AddLink(0, 2)

	buf := g.AppendBinary(nil)
	g2, n, err := DecodeBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("DecodeBinary consumed %d of %d bytes", n, len(buf))
	}
	if !graphsEqual(g, g2) {
		t.Fatal("round trip changed the graph")
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	// URL index must be rebuilt.
	if id, ok := g2.Lookup("http://b/"); !ok || id != 1 {
		t.Fatal("URL index not rebuilt")
	}
}

func TestRoundTripGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g, err := GeneratePreferentialAttachment(PreferentialAttachmentConfig{Nodes: 500, OutPerNode: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	buf := g.AppendBinary(nil)
	g2, consumed, err := DecodeBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(buf) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(buf))
	}
	if !graphsEqual(g, g2) {
		t.Fatal("round trip changed generated graph")
	}
}

func TestDeterministicEncoding(t *testing.T) {
	// Same logical graph built with different insertion orders must encode
	// identically (adjacency is sorted on write).
	a := New(3)
	a.AddNodes(3)
	a.AddLink(0, 1)
	a.AddLink(0, 2)
	b := New(3)
	b.AddNodes(3)
	b.AddLink(0, 2)
	b.AddLink(0, 1)
	if !bytes.Equal(a.AppendBinary(nil), b.AppendBinary(nil)) {
		t.Fatal("encoding depends on insertion order")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	g := cycleGraph(10)
	buf := g.AppendBinary(nil)
	// Flip one payload byte.
	buf[20] ^= 0xff
	_, _, err := DecodeBinary(buf)
	if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrBadFormat) {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	buf := cycleGraph(3).AppendBinary(nil)
	buf[0] = 'X'
	if _, _, err := DecodeBinary(buf); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("bad magic not detected: %v", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	buf := cycleGraph(5).AppendBinary(nil)
	for _, cut := range []int{0, 3, 11, len(buf) / 2, len(buf) - 1} {
		if _, _, err := DecodeBinary(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestEmptyGraphRoundTrip(t *testing.T) {
	g := New(0)
	buf := g.AppendBinary(nil)
	g2, _, err := DecodeBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 0 || g2.NumEdges() != 0 {
		t.Fatal("empty graph round trip non-empty")
	}
}

// TestURLLengthLimit: the writer refuses what the reader refuses. A URL
// of MaxURLLen bytes round-trips; AddPage refuses one byte more, so no
// graph holds a URL that DecodeBinary would reject.
func TestURLLengthLimit(t *testing.T) {
	g := New(1)
	longest := "http://a/" + strings.Repeat("x", MaxURLLen-len("http://a/"))
	g.MustAddPage(Page{URL: longest})
	g2, _, err := DecodeBinary(g.AppendBinary(nil))
	if err != nil || !graphsEqual(g, g2) {
		t.Fatalf("a %d-byte URL does not round-trip: %v", len(longest), err)
	}
	if _, err := g.AddPage(Page{URL: longest + "x"}); err == nil || g.NumNodes() != 1 {
		t.Fatalf("AddPage took a %d-byte URL: err %v, %d nodes", len(longest)+1, err, g.NumNodes())
	}
}

func TestImplausibleLengthRejected(t *testing.T) {
	buf := append([]byte{}, graphMagic[:]...)
	buf = append(buf, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f) // huge payload len
	if _, _, err := DecodeBinary(buf); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("huge payload accepted: %v", err)
	}
}

// Property: any random graph survives a serialisation round trip.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, nNodes uint8, nEdges uint16) bool {
		n := int(nNodes%64) + 2
		rng := rand.New(rand.NewSource(seed))
		e := int(nEdges) % (n * (n - 1) / 2)
		g, err := GenerateUniform(n, e, rng)
		if err != nil {
			return false
		}
		buf := g.AppendBinary(nil)
		g2, _, err := DecodeBinary(buf)
		return err == nil && graphsEqual(g, g2)
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := GeneratePreferentialAttachment(PreferentialAttachmentConfig{Nodes: 10000, OutPerNode: 5}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := g.AppendBinary(nil)
		if len(buf) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := GeneratePreferentialAttachment(PreferentialAttachmentConfig{Nodes: 10000, OutPerNode: 5}, rng)
	if err != nil {
		b.Fatal(err)
	}
	buf := g.AppendBinary(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeBinary(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFreeze(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := GeneratePreferentialAttachment(PreferentialAttachmentConfig{Nodes: 50000, OutPerNode: 6}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Freeze(g).NumEdges() != g.NumEdges() {
			b.Fatal("freeze lost edges")
		}
	}
}

// BenchmarkFreezeSubgraph restricts BenchmarkFreeze's graph to a
// shuffled nine in ten of its pages, as Align restricts each crawl to the
// common pages in URL order.
func BenchmarkFreezeSubgraph(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := GeneratePreferentialAttachment(PreferentialAttachmentConfig{Nodes: 50000, OutPerNode: 6}, rng)
	if err != nil {
		b.Fatal(err)
	}
	perm := rng.Perm(g.NumNodes())
	keep := make([]NodeID, g.NumNodes()*9/10)
	for i := range keep {
		keep[i] = NodeID(perm[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if FreezeSubgraph(g, keep).NumNodes() != len(keep) {
			b.Fatal("wrong node count")
		}
	}
}

// Property: arbitrary byte soup never panics the decoder and is always
// rejected (the only accepted inputs are genuine encodings).
func TestQuickDecodeFuzz(t *testing.T) {
	f := func(junk []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("decoder panicked")
			}
		}()
		_, _, err := DecodeBinary(junk)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping any single byte of a valid encoding is detected.
func TestQuickBitFlipDetected(t *testing.T) {
	g := cycleGraph(12)
	buf := g.AppendBinary(nil)
	f := func(pos uint16, bit uint8) bool {
		cp := append([]byte(nil), buf...)
		i := int(pos) % len(cp)
		cp[i] ^= 1 << (bit % 8)
		g2, _, err := DecodeBinary(cp)
		if err != nil {
			return true // rejected: good
		}
		// A flip that survives decoding must decode to the same graph
		// (e.g. flipping a bit inside the length prefix's unused high
		// bytes cannot happen; accept only exact equality).
		return graphsEqual(g, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// hostileHeaders are inputs whose headers claim far more than they hold:
// a 16-byte input announcing a 1 GiB payload, and a 22-byte one whose
// valid checksum covers a payload claiming 60 M nodes.
func hostileHeaders() map[string][]byte {
	huge := append([]byte(nil), graphMagic[:]...)
	huge = binary.LittleEndian.AppendUint64(huge, 1<<30)
	huge = append(huge, 0, 0, 0, 0)
	nodes := binary.AppendUvarint(nil, 60_000_000)
	nodes = append(nodes, 0, 0) // no edges, one stray byte
	return map[string][]byte{"payload-length": huge, "node-count": reframe(nodes)}
}

// TestDecodeAllocationBoundedByInput: a header's sizes are bounded by the
// bytes present before anything is allocated, so neither hostile header
// allocates a MiB, and both are ErrBadFormat.
func TestDecodeAllocationBoundedByInput(t *testing.T) {
	for name, buf := range hostileHeaders() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := DecodeBinary(buf)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: a %d-byte input allocated %d MiB", name, len(buf), alloc>>20)
		}
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", name, err)
		}
	}
}

// rowsPayload encodes nodes URL-less pages followed by the given
// adjacency rows, each a list of raw deltas, under a header claiming
// edges links.
func rowsPayload(nodes, edges int, rows [][]uint64) []byte {
	p := binary.AppendUvarint(binary.AppendUvarint(nil, uint64(nodes)), uint64(edges))
	for i := 0; i < nodes; i++ {
		p = append(p, 0, 0) // empty URL, site 0
		p = append(p, make([]byte, 16)...)
	}
	for i := 0; i < nodes; i++ {
		var row []uint64
		if i < len(rows) {
			row = rows[i]
		}
		p = binary.AppendUvarint(p, uint64(len(row)))
		for _, d := range row {
			p = binary.AppendUvarint(p, d)
		}
	}
	return p
}

// paddedDelta is rowsPayload(3, 3, [][]uint64{{1, 1}, {0}}) with node
// 1's delta written as the padded two-byte varint 0x80 0x00, after node
// 0's one-byte deltas: well formed but for the padding.
func paddedDelta() []byte {
	p := rowsPayload(3, 3, [][]uint64{{1, 1}}) // ends in nodes 1 and 2's empty rows
	return append(p[:len(p)-2], 1, 0x80, 0x00, 0)
}

// badRows are adjacency rows every decoder must refuse, checksum intact.
// In the 200-node rows the bad delta is one byte after a two-byte one.
var badRows = map[string][]byte{
	"zero-delta":            rowsPayload(3, 2, [][]uint64{{1, 0}}),
	"self-edge":             rowsPayload(3, 1, [][]uint64{nil, {1}}),
	"out-of-range":          rowsPayload(3, 1, [][]uint64{{3}}),
	"wrapped-delta":         rowsPayload(3, 2, [][]uint64{{2, math.MaxUint64}}),
	"edge-count":            rowsPayload(3, 2, [][]uint64{{1}}),
	"zero-delta-one-byte":   rowsPayload(200, 2, [][]uint64{{130, 0}}),
	"self-edge-one-byte":    rowsPayload(200, 2, [][]uint64{129: {128, 1}}),
	"out-of-range-one-byte": rowsPayload(200, 2, [][]uint64{{130, 70}}),
	"padded-delta":          paddedDelta(),
}

func TestDecodeRejectsBadRows(t *testing.T) {
	for name, p := range badRows {
		if _, _, err := DecodeBinary(reframe(p)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", name, err)
		}
	}
	for _, p := range [][]byte{
		rowsPayload(3, 2, [][]uint64{{1, 1}}),
		rowsPayload(3, 3, [][]uint64{{1, 1}, {0}}),
		rowsPayload(200, 4, [][]uint64{{130, 69}, {128, 2}}),
	} {
		if _, _, err := DecodeBinary(reframe(p)); err != nil {
			t.Fatalf("a well-formed control row is refused: %v", err)
		}
	}
}

// FuzzDecodeBinary: arbitrary bytes never panic the decoder; a graph that
// decodes is consistent, encodes back to the bytes it was decoded from,
// and that encoding decodes to the same pages, rows and in-list order.
// Each input is also tried as a payload behind a valid checksum, which is
// how mutations reach the row parser.
func FuzzDecodeBinary(f *testing.F) {
	f.Add(cycleGraph(5).AppendBinary(nil))
	f.Add(payloadOf(cycleGraph(5).AppendBinary(nil)))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, buf := range [][]byte{data, reframe(data)} {
			g, n, err := DecodeBinary(buf)
			if err != nil {
				continue
			}
			if n > len(buf) {
				t.Fatalf("consumed %d of %d bytes", n, len(buf))
			}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			if enc := g.AppendBinary(nil); !bytes.Equal(enc, buf[:n]) {
				t.Fatalf("graph re-encodes to %x, want %x", enc, buf[:n])
			}
			again, _, err := DecodeBinary(g.AppendBinary(nil))
			if err != nil {
				t.Fatalf("re-encoding does not decode: %v", err)
			}
			sameGraph(t, again, g)
		}
	})
}
