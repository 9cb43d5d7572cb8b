package pagestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
)

// Segment footer. When a segment fills up, a self-describing footer is
// appended after its last record and the file is never written again.
// The footer carries everything Open needs to index the segment without
// touching record bodies:
//
//	footMagic  byte 0xF5          (distinct from recMagic 0xA7, so a
//	                               record scan stops cleanly at a footer)
//	body:
//	  version  uvarint  (2)
//	  count    uvarint  (number of fence entries)
//	  dataLen  uvarint  (bytes of record data; == footer start offset)
//	  entries, sorted by key (the fence pointers, one per live-at-seal
//	  key; within-segment superseded versions are already resolved):
//	    keyLen uvarint, key bytes, offset uvarint
//	crc32    uint32 LE  (over body)
//	bodyLen  uint32 LE
//	trailer  [8]byte "PQSFOOT1"
//
// The trailer is found by reading the last 16 bytes of the file, so a
// sealed segment is indexed with two small ReadAts — O(index) instead of
// O(data). Any failure to validate (missing trailer, truncated body, crc
// mismatch, another version, inconsistent dataLen/offsets) falls back to
// the full record scan, which rebuilds an identical index from the
// records themselves. Version 1 put a bloom filter between dataLen and
// the entries; its records are the same bytes, so such a segment is
// simply scanned.
const (
	footMagic      = 0xF5
	footVersion    = 2
	footTrailerLen = 16 // crc32 + bodyLen + trailer magic
)

var footTrailer = [8]byte{'P', 'Q', 'S', 'F', 'O', 'O', 'T', '1'}

// footer is the decoded form.
type footer struct {
	dataLen int64
	entries []segEntry // sorted by key
}

// encodeFooter builds the footer bytes for a segment whose records span
// [0, dataLen) and whose latest version per key is entries.
func encodeFooter(entries map[string]int64, dataLen int64) []byte {
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var body []byte
	body = binary.AppendUvarint(body, footVersion)
	body = binary.AppendUvarint(body, uint64(len(keys)))
	body = binary.AppendUvarint(body, uint64(dataLen))
	for _, k := range keys {
		body = binary.AppendUvarint(body, uint64(len(k)))
		body = append(body, k...)
		body = binary.AppendUvarint(body, uint64(entries[k]))
	}

	out := make([]byte, 0, 1+len(body)+footTrailerLen)
	out = append(out, footMagic)
	out = append(out, body...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	out = append(out, footTrailer[:]...)
	return out
}

// readFooter validates and decodes the footer of the segment file f
// (size bytes long). It returns:
//
//	ft != nil            — a valid footer; no record bytes were read.
//	ft == nil, evidence  — the trailer magic is present but the footer
//	                       fails validation (corrupt or truncated seal);
//	                       the caller must fall back to a record scan and
//	                       may treat unparseable tail bytes as footer
//	                       debris rather than record corruption.
//	ft == nil, !evidence — no footer (an unsealed or pre-footer segment).
//
// Only I/O failures are returned as errors; every malformed-footer case
// degrades to the scan path.
func readFooter(f *os.File, size int64) (ft *footer, evidence bool, err error) {
	if size < footTrailerLen+1 {
		return nil, false, nil
	}
	var tail [footTrailerLen]byte
	if _, err := f.ReadAt(tail[:], size-footTrailerLen); err != nil {
		return nil, false, fmt.Errorf("pagestore: read footer trailer: %w", err)
	}
	if [8]byte(tail[8:16]) != footTrailer {
		return nil, false, nil
	}
	bodyLen := int64(binary.LittleEndian.Uint32(tail[4:8]))
	footStart := size - footTrailerLen - bodyLen - 1
	if footStart < 0 {
		return nil, true, nil
	}
	buf := make([]byte, 1+bodyLen)
	if _, err := f.ReadAt(buf, footStart); err != nil {
		return nil, true, fmt.Errorf("pagestore: read footer body: %w", err)
	}
	if buf[0] != footMagic {
		return nil, true, nil
	}
	body := buf[1:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail[0:4]) {
		return nil, true, nil
	}
	ft, ok := decodeFooterBody(body, footStart)
	if !ok {
		return nil, true, nil
	}
	return ft, true, nil
}

// decodeFooterBody parses the checksummed footer body. footStart is the
// file offset of the footMagic byte; a well-formed footer's dataLen must
// equal it exactly (records end where the footer begins). Only the body
// encodeFooter writes is accepted: a padded varint is refused, so an
// accepted body re-encodes to the same bytes.
func decodeFooterBody(body []byte, footStart int64) (*footer, bool) {
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(body)
		if n <= 0 || n > 1 && body[n-1] == 0 {
			return 0, false
		}
		body = body[n:]
		return v, true
	}
	version, ok := uvarint()
	if !ok || version != footVersion {
		return nil, false
	}
	count, ok := uvarint()
	if !ok {
		return nil, false
	}
	dataLen, ok := uvarint()
	if !ok || footStart < 0 || dataLen != uint64(footStart) {
		return nil, false
	}
	// Each entry takes >= 3 body bytes (key length, a non-empty key, its
	// offset), so the count is bounded by the bytes present before the
	// entries are allocated.
	if count > uint64(len(body))/3 {
		return nil, false
	}
	ft := &footer{dataLen: int64(dataLen), entries: make([]segEntry, 0, count)}
	prevKey := ""
	for i := uint64(0); i < count; i++ {
		klen, ok := uvarint()
		if !ok || klen == 0 || klen > MaxKeyLen || klen > uint64(len(body)) {
			return nil, false
		}
		key := string(body[:klen])
		body = body[klen:]
		off, ok := uvarint()
		if !ok || off >= dataLen {
			return nil, false
		}
		if i > 0 && key <= prevKey {
			return nil, false // fence entries must be strictly key-sorted
		}
		prevKey = key
		ft.entries = append(ft.entries, segEntry{key: key, off: int64(off)})
	}
	if len(body) != 0 {
		return nil, false
	}
	return ft, true
}
