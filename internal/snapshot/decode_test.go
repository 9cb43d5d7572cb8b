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

// hostileStores claim more than their bytes hold, each behind a valid
// checksum: 65,536 snapshots in a 12-byte store, and a 4,096-byte label
// in a one-snapshot store that ends after the label length.
func hostileStores() map[string][]byte {
	count := binary.LittleEndian.AppendUint32(nil, 1<<16)
	label := binary.AppendUvarint(binary.LittleEndian.AppendUint32(nil, 1), 1<<12)
	return map[string][]byte{"count": frame(count), "label-length": frame(label)}
}

// TestDecodeStoreAllocationBoundedByInput: a store's snapshot count and
// label length are bounded by the bytes present before anything is
// allocated, so neither hostile store allocates 64 KiB, and both are
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
