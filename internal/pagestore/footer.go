package pagestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"pagequality/internal/randx"
)

// Segment footer. When a segment fills up (rotation) or is produced by
// compaction, a self-describing footer is appended after its last record
// and the file is never written again. The footer carries everything
// Open needs to index the segment without touching record bodies:
//
//	footMagic  byte 0xF5          (distinct from recMagic 0xA7, so a
//	                               record scan stops cleanly at a footer)
//	body:
//	  version  uvarint  (1)
//	  count    uvarint  (number of fence entries)
//	  dataLen  uvarint  (bytes of record data; == footer start offset)
//	  bloomK   uvarint  (hash functions in the bloom filter)
//	  bloomLen uvarint  (bloom bitset length in bytes; power of two)
//	  bloom    bytes
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
// mismatch, inconsistent dataLen/offsets) falls back to the full record
// scan, which rebuilds an identical index from the records themselves.
const (
	footMagic       = 0xF5
	footVersion     = 1
	footTrailerLen  = 16 // crc32 + bodyLen + trailer magic
	bloomHashes     = 4
	bloomBitsPerKey = 10
)

var footTrailer = [8]byte{'P', 'Q', 'S', 'F', 'O', 'O', 'T', '1'}

// footer is the decoded form.
type footer struct {
	dataLen int64
	entries []segEntry // sorted by key
	bloom   []byte
	bloomK  int
}

// bloomSize returns the bitset length in bytes for n keys: a power of
// two holding ~bloomBitsPerKey bits per key (~1% false positives at
// k=4), at least 8 bytes so tiny segments still get a well-formed filter.
func bloomSize(n int) int {
	bits := n * bloomBitsPerKey
	size := 8
	for size*8 < bits {
		size *= 2
	}
	return size
}

// bloomHash derives the i-th probe bit for key via double hashing on the
// splitmix64-finalized FNV of the key. The second hash is forced odd so
// the probe sequence walks the full power-of-two bitset.
func bloomProbe(b []byte, key string, i int) (byteIdx int, mask byte) {
	h1 := randx.Key(key)
	h2 := h1
	h2 ^= h2 >> 30
	h2 *= 0xbf58476d1ce4e5b9
	h2 ^= h2 >> 27
	h2 *= 0x94d049bb133111eb
	h2 ^= h2 >> 31
	h2 |= 1
	bit := (h1 + uint64(i)*h2) & uint64(len(b)*8-1)
	return int(bit >> 3), 1 << (bit & 7)
}

func bloomAdd(b []byte, key string) {
	for i := 0; i < bloomHashes; i++ {
		idx, mask := bloomProbe(b, key, i)
		b[idx] |= mask
	}
}

func bloomMayContain(b []byte, k int, key string) bool {
	for i := 0; i < k; i++ {
		idx, mask := bloomProbe(b, key, i)
		if b[idx]&mask == 0 {
			return false
		}
	}
	return true
}

// encodeFooter builds the footer bytes for a segment whose records span
// [0, dataLen) and whose latest version per key is entries. The bloom
// filter baked into the footer is also returned so the sealer can keep
// it in memory without re-deriving it.
func encodeFooter(entries map[string]int64, dataLen int64) ([]byte, segBloom) {
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bloom := make([]byte, bloomSize(len(keys)))
	for _, k := range keys {
		bloomAdd(bloom, k)
	}
	var body []byte
	body = binary.AppendUvarint(body, footVersion)
	body = binary.AppendUvarint(body, uint64(len(keys)))
	body = binary.AppendUvarint(body, uint64(dataLen))
	body = binary.AppendUvarint(body, bloomHashes)
	body = binary.AppendUvarint(body, uint64(len(bloom)))
	body = append(body, bloom...)
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
	return out, segBloom{bits: bloom, k: bloomHashes}
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
//	ft == nil, !evidence — no footer (unsealed or legacy segment).
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
// equal it exactly (records end where the footer begins).
func decodeFooterBody(body []byte, footStart int64) (*footer, bool) {
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(body)
		if n <= 0 {
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
	bloomK, ok := uvarint()
	if !ok || bloomK == 0 || bloomK > 16 {
		return nil, false
	}
	bloomLen, ok := uvarint()
	if !ok || bloomLen > uint64(len(body)) || bloomLen&(bloomLen-1) != 0 || bloomLen < 8 {
		return nil, false
	}
	// Each entry takes >= 3 body bytes (key length, a non-empty key, its
	// offset), so the count is bounded by the bytes present before the
	// entries are allocated.
	if count > (uint64(len(body))-bloomLen)/3 {
		return nil, false
	}
	ft := &footer{
		dataLen: int64(dataLen),
		bloom:   append([]byte(nil), body[:bloomLen]...),
		bloomK:  int(bloomK),
		entries: make([]segEntry, 0, count),
	}
	body = body[bloomLen:]
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
