package graph

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
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

	var buf bytes.Buffer
	n, err := g.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo returned %d, wrote %d", n, buf.Len())
	}
	g2, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
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
		if _, err := ReadFrom(bytes.NewReader(buf[:cut])); err == nil {
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
// graph holds a URL that ReadFrom would reject.
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
	if _, err := ReadFrom(bytes.NewReader(buf)); !errors.Is(err, ErrBadFormat) {
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
