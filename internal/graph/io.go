package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Binary graph format
//
//	magic      [4]byte  "PQG1"
//	payloadLen uint64 little-endian
//	payload    payloadLen bytes:
//	    nodes   uvarint
//	    edges   uvarint
//	    pages   nodes × { urlLen uvarint, url bytes, site varint,
//	                      created float64, quality float64 }
//	    adjacency nodes × { deg uvarint, deg × target uvarint
//	                        (delta-coded, ascending) }
//	crc32      uint32 little-endian (IEEE, over the payload)
//
// The adjacency is written sorted so identical graphs always serialise to
// identical bytes. The payload is length-prefixed so the reader can verify
// the checksum before parsing.

var graphMagic = [4]byte{'P', 'Q', 'G', '1'}

// ErrBadFormat is returned when a stream does not contain a valid graph.
var ErrBadFormat = errors.New("graph: bad format")

// ErrChecksum is returned when the payload checksum does not match.
var ErrChecksum = errors.New("graph: checksum mismatch")

// AppendBinary serialises g into buf (which may be nil) and returns the
// extended buffer.
func (g *Graph) AppendBinary(buf []byte) []byte {
	payload := g.appendPayload(nil)
	buf = append(buf, graphMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return buf
}

func (g *Graph) appendPayload(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(g.NumNodes()))
	b = binary.AppendUvarint(b, uint64(g.NumEdges()))
	for _, p := range g.pages {
		b = binary.AppendUvarint(b, uint64(len(p.URL)))
		b = append(b, p.URL...)
		b = binary.AppendVarint(b, int64(p.Site))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Created))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Quality))
	}
	sorted := make([]NodeID, 0, 64)
	for i := range g.out {
		sorted = append(sorted[:0], g.out[i]...)
		sortNodeIDs(sorted)
		b = binary.AppendUvarint(b, uint64(len(sorted)))
		prev := uint64(0)
		for _, t := range sorted {
			b = binary.AppendUvarint(b, uint64(t)-prev)
			prev = uint64(t)
		}
	}
	return b
}

// DecodeBinary parses a buffer produced by AppendBinary and returns the
// graph plus the number of bytes consumed. It reads buf in place and
// keeps no reference to it. Every size the header claims is bounded by
// the bytes present before anything is allocated, so a corrupt or hostile
// input costs memory in proportion to its length.
func DecodeBinary(buf []byte) (*Graph, int, error) {
	if len(buf) < 16 {
		return nil, 0, fmt.Errorf("%w: short buffer", ErrBadFormat)
	}
	if *(*[4]byte)(buf[:4]) != graphMagic {
		return nil, 0, fmt.Errorf("%w: magic %q", ErrBadFormat, buf[:4])
	}
	plen := binary.LittleEndian.Uint64(buf[4:12])
	if plen > uint64(len(buf)-16) {
		return nil, 0, fmt.Errorf("%w: payload length %d exceeds the %d bytes present", ErrBadFormat, plen, len(buf)-16)
	}
	end := 12 + int(plen)
	payload := buf[12:end]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(buf[end:]); got != want {
		return nil, 0, fmt.Errorf("%w: got %08x want %08x", ErrChecksum, got, want)
	}
	g, err := parsePayload(payload)
	if err != nil {
		return nil, 0, err
	}
	return g, end + 4, nil
}

// minNodeBytes is the smallest encoded node: URL length, site, two
// floats and out-degree, with an empty URL and no links.
const minNodeBytes = 1 + 1 + 16 + 1

// payloadReader walks a checksum-verified payload. A read past the end or
// a malformed varint sets bad and returns zero.
type payloadReader struct {
	b   []byte
	bad bool
}

func (r *payloadReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || padded(r.b, n) {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

// padded reports whether the n-byte varint at the front of b ends in a
// zero byte: an overlong encoding AppendBinary never writes, which would
// decode to a graph that encodes to other bytes.
func padded(b []byte, n int) bool { return n > 1 && b[n-1] == 0 }

func (r *payloadReader) next(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.bad = true
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *payloadReader) float() float64 {
	if b := r.next(8); len(b) == 8 {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// parsePayload builds the graph straight into packed rows. A row is
// delta-coded ascending, so a zero delta after its first target is a
// duplicate and a target equal to the row is a self edge: neither needs
// a search of the row. The in-lists are filled afterwards in (from, row)
// order, the order AddLink would have appended them in.
func parsePayload(payload []byte) (*Graph, error) {
	r := &payloadReader{b: payload}
	nodes, edges := r.uvarint(), r.uvarint()
	if r.bad {
		return nil, fmt.Errorf("%w: truncated header", ErrBadFormat)
	}
	if nodes > uint64(len(payload))/minNodeBytes {
		return nil, fmt.Errorf("%w: implausible node count %d", ErrBadFormat, nodes)
	}
	g := New(int(nodes))
	for i := uint64(0); i < nodes; i++ {
		ulen := r.uvarint()
		if ulen > MaxURLLen {
			return nil, fmt.Errorf("%w: url length %d", ErrBadFormat, ulen)
		}
		url := r.next(ulen)
		site, n := binary.Varint(r.b)
		if n <= 0 || padded(r.b, n) || site != int64(int32(site)) {
			r.bad = true
		} else {
			r.b = r.b[n:]
		}
		created, quality := r.float(), r.float()
		if r.bad {
			return nil, fmt.Errorf("%w: node %d truncated", ErrBadFormat, i)
		}
		if _, err := g.AddPage(Page{URL: string(url), Site: int32(site), Created: created, Quality: quality}); err != nil {
			return nil, err
		}
	}
	// Every target takes at least one byte, so the bytes left bound the
	// edge count a truthful header can give.
	targets := make([]NodeID, 0, min(edges, uint64(len(r.b))))
	for i := uint64(0); i < nodes; i++ {
		deg := r.uvarint()
		if deg > nodes {
			return nil, fmt.Errorf("%w: degree %d > nodes %d", ErrBadFormat, deg, nodes)
		}
		lo, prev := len(targets), uint64(0)
		for k := uint64(0); k < deg && !r.bad; k++ {
			d := r.uvarint()
			switch {
			case r.bad: // reported after the loop
			case d >= nodes-prev: // prev < nodes, so this cannot overflow
				return nil, fmt.Errorf("%w: edge target %d+%d out of range", ErrBadFormat, prev, d)
			case (k > 0 && d == 0) || prev+d == i:
				return nil, fmt.Errorf("%w: duplicate or self edge %d->%d", ErrBadFormat, i, prev+d)
			}
			prev += d
			targets = append(targets, NodeID(prev))
		}
		if r.bad {
			return nil, fmt.Errorf("%w: adjacency of node %d truncated", ErrBadFormat, i)
		}
		if n := len(targets); n > lo {
			g.out[i] = targets[lo:n:n]
		}
	}
	if uint64(len(targets)) != edges {
		return nil, fmt.Errorf("%w: edge count %d, header says %d", ErrBadFormat, len(targets), edges)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrBadFormat, len(r.b))
	}
	g.fillIn()
	return g, nil
}
