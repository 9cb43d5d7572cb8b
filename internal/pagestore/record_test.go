package pagestore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzParseRecord: arbitrary bytes, and the same bytes with their last
// four replaced by the checksum of the rest, never panic parseRecordAt
// or inflate (Get's read is the two in turn). An accepted record
// re-encodes byte for byte through appendRecord and holds a body of at
// most maxBodyLen bytes on either side of the compressor. The seeds
// under testdata/fuzz are a valid record, its truncations and byte
// flips, hostile key and body lengths, and an overlong varint.
func FuzzParseRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRecord(t, data)
		if len(data) > 4 {
			sealed := append([]byte(nil), data[:len(data)-4]...)
			checkRecord(t, binary.LittleEndian.AppendUint32(sealed, crc32.ChecksumIEEE(sealed[1:])))
		}
	})
}

func checkRecord(t *testing.T, data []byte) {
	total, key, meta, compressed, err := parseRecordAt(data, 0)
	if err != nil {
		return
	}
	if len(compressed) > maxBodyLen {
		t.Fatalf("accepted a %d-byte body", len(compressed))
	}
	if again := appendRecord(nil, string(key), meta, compressed); !bytes.Equal(again, data[:total]) {
		t.Fatalf("accepted record re-encodes to %q, read %q", again, data[:total])
	}
	if body, err := inflate(compressed, maxBodyLen); err == nil && len(body) > maxBodyLen {
		t.Fatalf("inflated a %d-byte body", len(body))
	}
}
