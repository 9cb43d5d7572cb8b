package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"
)

// frame wraps body (count and records) in the store magic and a valid
// checksum, so a corrupted body reaches the record parser.
func frame(body []byte) []byte {
	buf := append(storeMagic[:], body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
}

// hostileStores are malformed behind a valid checksum: two claim more
// than their bytes hold — 65,536 snapshots in a 12-byte store, and a
// 4,096-byte label in a one-snapshot store that ends after the label
// length — and one holds a two-page graph whose node count is padded to
// 0x82 0x00, which would decode and then encode to other bytes.
func hostileStores() map[string][]byte {
	count := binary.LittleEndian.AppendUint32(nil, 1<<16)
	label := binary.AppendUvarint(binary.LittleEndian.AppendUint32(nil, 1), 1<<12)
	payload := append([]byte{0x82, 0x00, 0}, make([]byte, 2*18+2)...) // two empty pages, no links
	blob := binary.LittleEndian.AppendUint64([]byte("PQG1"), uint64(len(payload)))
	blob = binary.LittleEndian.AppendUint32(append(blob, payload...), crc32.ChecksumIEEE(payload))
	padded := append(binary.LittleEndian.AppendUint32(nil, 1), 2, 't', '1')
	padded = binary.AppendUvarint(append(padded, make([]byte, 8)...), uint64(len(blob)))
	return map[string][]byte{"count": frame(count), "label-length": frame(label), "padded-graph": frame(append(padded, blob...))}
}

// TestDecodeStoreAllocationBoundedByInput: a store's snapshot count and
// label length are bounded by the bytes present before anything is
// allocated, so no hostile store allocates 64 KiB, and each is
// ErrBadStore.
func TestDecodeStoreAllocationBoundedByInput(t *testing.T) {
	for name, buf := range hostileStores() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(buf)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
			t.Errorf("%s: a %d-byte store allocated %d bytes", name, len(buf), alloc)
		}
		if !errors.Is(err, ErrBadStore) {
			t.Errorf("%s: err = %v, want ErrBadStore", name, err)
		}
	}
}

// FuzzDecodeStore: arbitrary bytes, and the same bytes as a body behind a
// valid checksum, never panic the store decoder and allocate at most
// linearly in their length; a store that decodes encodes back to the
// same bytes. The seeds under testdata/fuzz are a two-snapshot store, its
// body's truncations and byte flips, and the hostile stores above.
func FuzzDecodeStore(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, buf := range [][]byte{data, frame(data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			snaps, err := Decode(buf)
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10+64*uint64(len(buf)) {
				t.Fatalf("a %d-byte store allocated %d bytes", len(buf), alloc)
			}
			if err != nil {
				continue
			}
			again, err := Encode(snaps)
			if err != nil {
				t.Fatalf("decoded store does not encode: %v", err)
			}
			if !bytes.Equal(again, buf) {
				t.Fatalf("store re-encodes to %x, want %x", again, buf)
			}
		}
	})
}
