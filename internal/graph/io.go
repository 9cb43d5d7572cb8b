package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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

// maxPayload bounds allocations driven by untrusted input (1 GiB).
const maxPayload = 1 << 30

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

// WriteTo serialises g to w, returning the number of bytes written.
// It implements io.WriterTo.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	buf := g.AppendBinary(nil)
	n, err := w.Write(buf)
	if err != nil {
		return int64(n), fmt.Errorf("graph: write: %w", err)
	}
	return int64(n), nil
}

// ReadFrom deserialises a graph previously written with WriteTo or
// AppendBinary. The payload checksum is verified before parsing.
func ReadFrom(r io.Reader) (*Graph, error) {
	var head [12]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("graph: read header: %w", err)
	}
	if *(*[4]byte)(head[:4]) != graphMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, head[:4])
	}
	plen := binary.LittleEndian.Uint64(head[4:12])
	if plen > maxPayload {
		return nil, fmt.Errorf("%w: payload length %d too large", ErrBadFormat, plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("graph: read payload: %w", err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("graph: read checksum: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crcBuf[:]); got != want {
		return nil, fmt.Errorf("%w: got %08x want %08x", ErrChecksum, got, want)
	}
	return parsePayload(payload)
}

// DecodeBinary parses a buffer produced by AppendBinary and returns the
// graph plus the number of bytes consumed.
func DecodeBinary(buf []byte) (*Graph, int, error) {
	if len(buf) < 12 {
		return nil, 0, fmt.Errorf("%w: short buffer", ErrBadFormat)
	}
	g, err := ReadFrom(bytes.NewReader(buf))
	if err != nil {
		return nil, 0, err
	}
	plen := binary.LittleEndian.Uint64(buf[4:12])
	return g, 12 + int(plen) + 4, nil
}

func parsePayload(payload []byte) (*Graph, error) {
	br := bytes.NewReader(payload)
	nodes, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph: node count: %w", err)
	}
	edges, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph: edge count: %w", err)
	}
	if nodes > maxPayload/16 {
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
			return nil, fmt.Errorf("graph: node %d url len: %w", i, err)
		}
		if ulen > MaxURLLen {
			return nil, fmt.Errorf("%w: url length %d", ErrBadFormat, ulen)
		}
		urlBytes := make([]byte, ulen)
		if _, err := io.ReadFull(br, urlBytes); err != nil {
			return nil, fmt.Errorf("graph: node %d url: %w", i, err)
		}
		site, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("graph: node %d site: %w", i, err)
		}
		created, err := readFloat()
		if err != nil {
			return nil, fmt.Errorf("graph: node %d created: %w", i, err)
		}
		quality, err := readFloat()
		if err != nil {
			return nil, fmt.Errorf("graph: node %d quality: %w", i, err)
		}
		if _, err := g.AddPage(Page{
			URL:     string(urlBytes),
			Site:    int32(site),
			Created: created,
			Quality: quality,
		}); err != nil {
			return nil, err
		}
	}
	for i := uint64(0); i < nodes; i++ {
		deg, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("graph: node %d degree: %w", i, err)
		}
		if deg > nodes {
			return nil, fmt.Errorf("%w: degree %d > nodes %d", ErrBadFormat, deg, nodes)
		}
		prev := uint64(0)
		for k := uint64(0); k < deg; k++ {
			d, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("graph: node %d edge %d: %w", i, k, err)
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
