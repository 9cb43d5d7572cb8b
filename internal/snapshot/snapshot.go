// Package snapshot implements the multi-snapshot storage layer of the
// experiment pipeline (Section 8 of the paper): a binary container holding
// a sequence of timestamped Web-graph snapshots, atomic file persistence,
// and the alignment step that restricts a series of snapshots to the pages
// present in every one of them (the paper's "2.7 million pages common in
// all four snapshots") with consistent node identifiers throughout.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"pagequality/internal/graph"
	"pagequality/internal/pagestore"
)

// Snapshot is one crawl of the Web at a point in time.
type Snapshot struct {
	// Label names the snapshot (e.g. "t1").
	Label string
	// Time is the simulation or wall-clock time of the crawl, in the
	// series' time unit (the experiments use weeks).
	Time float64
	// Graph is the crawled link structure.
	Graph *graph.Graph
}

// Select returns the snapshot labelled label, or the last one when label
// is empty — the choice every single-snapshot command offers.
func Select(snaps []Snapshot, label string) (Snapshot, error) {
	if len(snaps) == 0 {
		return Snapshot{}, errors.New("store is empty")
	}
	if label == "" {
		return snaps[len(snaps)-1], nil
	}
	for _, s := range snaps {
		if s.Label == label {
			return s, nil
		}
	}
	return Snapshot{}, fmt.Errorf("no snapshot labelled %q", label)
}

// Store file format
//
//	magic   [4]byte "PQS1"
//	count   uint32 little-endian
//	records count × {
//	    labelLen uvarint, label bytes,
//	    time     float64 bits little-endian,
//	    blobLen  uvarint, blob (graph.AppendBinary output)
//	}
//	crc32   uint32 little-endian over everything after the magic
var storeMagic = [4]byte{'P', 'Q', 'S', '1'}

// ErrBadStore reports a malformed snapshot store.
var ErrBadStore = errors.New("snapshot: bad store")

// Encode serialises the snapshots into the store format.
func Encode(snaps []Snapshot) ([]byte, error) {
	var body []byte
	body = binary.LittleEndian.AppendUint32(body, uint32(len(snaps)))
	for i, s := range snaps {
		if s.Graph == nil {
			return nil, fmt.Errorf("snapshot: snapshot %d (%q) has nil graph", i, s.Label)
		}
		body = binary.AppendUvarint(body, uint64(len(s.Label)))
		body = append(body, s.Label...)
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(s.Time))
		blob := s.Graph.AppendBinary(nil)
		body = binary.AppendUvarint(body, uint64(len(blob)))
		body = append(body, blob...)
	}
	out := make([]byte, 0, len(body)+8)
	out = append(out, storeMagic[:]...)
	out = append(out, body...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return out, nil
}

// minRecordBytes is the smallest encoded snapshot: a one-byte label
// length and no label, the time, a one-byte blob length and the 16-byte
// minimum graph blob graph.DecodeBinary accepts.
const minRecordBytes = 1 + 8 + 1 + 16

// Decode parses a store produced by Encode. Every size a store claims is
// bounded by the bytes present before anything is allocated, so a corrupt
// or hostile store costs memory in proportion to its length, and a store
// that decodes encodes back to the same bytes.
func Decode(data []byte) ([]Snapshot, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("%w: too short", ErrBadStore)
	}
	if *(*[4]byte)(data[:4]) != storeMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadStore, data[:4])
	}
	body := data[4 : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: checksum %08x != %08x", ErrBadStore, got, want)
	}
	count := binary.LittleEndian.Uint32(body)
	rest := body[4:]
	if uint64(count)*minRecordBytes > uint64(len(rest)) {
		return nil, fmt.Errorf("%w: %d snapshots claimed in %d bytes", ErrBadStore, count, len(rest))
	}
	snaps := make([]Snapshot, 0, count)
	for i := uint32(0); i < count; i++ {
		llen, ok := uvarint(&rest)
		if !ok || llen > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: snapshot %d label length", ErrBadStore, i)
		}
		label := string(rest[:llen])
		rest = rest[llen:]
		if len(rest) < 8 {
			return nil, fmt.Errorf("%w: snapshot %d time", ErrBadStore, i)
		}
		ts := math.Float64frombits(binary.LittleEndian.Uint64(rest))
		rest = rest[8:]
		blen, ok := uvarint(&rest)
		if !ok || blen > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: snapshot %d blob length", ErrBadStore, i)
		}
		// The graph decoder reads the blob in place and keeps no reference.
		g, n, err := graph.DecodeBinary(rest[:blen])
		if err != nil {
			return nil, fmt.Errorf("%w: snapshot %d graph: %w", ErrBadStore, i, err)
		}
		if uint64(n) != blen {
			return nil, fmt.Errorf("%w: snapshot %d: %d bytes after its graph", ErrBadStore, i, blen-uint64(n))
		}
		rest = rest[blen:]
		snaps = append(snaps, Snapshot{Label: label, Time: ts, Graph: g})
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadStore, len(rest))
	}
	return snaps, nil
}

// uvarint reads a minimally encoded uvarint off the front of *b. An
// overlong encoding is refused: it would decode to a value Encode writes
// in fewer bytes.
func uvarint(b *[]byte) (uint64, bool) {
	v, n := binary.Uvarint(*b)
	if n <= 0 || n > 1 && (*b)[n-1] == 0 {
		return 0, false
	}
	*b = (*b)[n:]
	return v, true
}

// WriteFile atomically persists the snapshots to path
// (pagestore.WriteFileAtomic), so readers never observe a partial store.
func WriteFile(path string, snaps []Snapshot) error {
	data, err := Encode(snaps)
	if err != nil {
		return err
	}
	return pagestore.WriteFileAtomic(path, data)
}

// ReadFile loads a store written by WriteFile.
func ReadFile(path string) ([]Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: read %s: %w", path, err)
	}
	return Decode(data)
}
