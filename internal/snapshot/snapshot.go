// Package snapshot implements the multi-snapshot storage layer of the
// experiment pipeline (Section 8 of the paper): a binary container holding
// a sequence of timestamped Web-graph snapshots, atomic file persistence,
// and the alignment step that restricts a series of snapshots to the pages
// present in every one of them (the paper's "2.7 million pages common in
// all four snapshots") with consistent node identifiers throughout.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"pagequality/internal/graph"
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

// Decode parses a store produced by Encode.
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
	br := bytes.NewReader(body)
	var cntBuf [4]byte
	if _, err := io.ReadFull(br, cntBuf[:]); err != nil {
		return nil, fmt.Errorf("%w: count: %v", ErrBadStore, err)
	}
	count := binary.LittleEndian.Uint32(cntBuf[:])
	if count > 1<<16 {
		return nil, fmt.Errorf("%w: implausible snapshot count %d", ErrBadStore, count)
	}
	snaps := make([]Snapshot, 0, count)
	var fbuf [8]byte
	for i := uint32(0); i < count; i++ {
		llen, err := binary.ReadUvarint(br)
		if err != nil || llen > 1<<12 {
			return nil, fmt.Errorf("%w: snapshot %d label length", ErrBadStore, i)
		}
		label := make([]byte, llen)
		if _, err := io.ReadFull(br, label); err != nil {
			return nil, fmt.Errorf("%w: snapshot %d label: %v", ErrBadStore, i, err)
		}
		if _, err := io.ReadFull(br, fbuf[:]); err != nil {
			return nil, fmt.Errorf("%w: snapshot %d time: %v", ErrBadStore, i, err)
		}
		ts := math.Float64frombits(binary.LittleEndian.Uint64(fbuf[:]))
		blen, err := binary.ReadUvarint(br)
		if err != nil || blen > uint64(br.Len()) {
			return nil, fmt.Errorf("%w: snapshot %d blob length", ErrBadStore, i)
		}
		// The graph decoder reads the blob in place and keeps no reference.
		pos := len(body) - br.Len()
		g, _, err := graph.DecodeBinary(body[pos : pos+int(blen)])
		br.Seek(int64(blen), io.SeekCurrent) // within the bounds checked above
		if err != nil {
			return nil, fmt.Errorf("snapshot: snapshot %d graph: %w", i, err)
		}
		snaps = append(snaps, Snapshot{Label: string(label), Time: ts, Graph: g})
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadStore, br.Len())
	}
	return snaps, nil
}

// WriteFile atomically persists the snapshots to path: it writes to a
// temporary file in the same directory, fsyncs, then renames over the
// destination, so readers never observe a partial store.
func WriteFile(path string, snaps []Snapshot) error {
	data, err := Encode(snaps)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".pqsnap-*")
	if err != nil {
		return fmt.Errorf("snapshot: create temp: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: write temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: sync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: close temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("snapshot: rename: %w", err)
	}
	return nil
}

// ReadFile loads a store written by WriteFile.
func ReadFile(path string) ([]Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: read %s: %w", path, err)
	}
	return Decode(data)
}
