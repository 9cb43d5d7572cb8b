package pagestore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// segmentDigest hashes every segment file in dir — name, length and
// bytes, in id order — so one string pins a whole store's disk image.
func segmentDigest(t *testing.T, dir string) string {
	t.Helper()
	ids, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, id := range ids {
		name := fmt.Sprintf("seg-%06d.dat", id)
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(name))
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(data))))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// recordDigest is segmentDigest over each segment's record region only:
// the bytes a record scan walks, up to the first footer byte or the end
// of the file. It pins what was written for the records apart from the
// footers that index them.
func recordDigest(t *testing.T, dir string) string {
	t.Helper()
	ids, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, id := range ids {
		name := fmt.Sprintf("seg-%06d.dat", id)
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		off := int64(0)
		for off < int64(len(data)) && data[off] != footMagic {
			n, _, _, _, err := parseRecordAt(data, off)
			if err != nil {
				t.Fatalf("%s offset %d: %v", name, off, err)
			}
			off += n
		}
		h.Write([]byte(name))
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(off)))
		h.Write(data[:off])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSegmentBytesPinned pins the bytes every write path leaves on disk:
// Puts with overwrites across rotations at a small segment size, a
// close, and a reopen that appends to the unsealed tail. Records,
// rotation thresholds, footers and segment ids all feed the whole-file
// digest; the record digest leaves the footers out.
func TestSegmentBytesPinned(t *testing.T) {
	const (
		wantFiles   = "7a1c38d50f013331d086faf00e38aec19988aa6f923dd7e65da1cf40bbf2fb36"
		wantRecords = "ee38811ae84395be89e4bedca75a48abd1fd2b9e3da70d2fb8000ee342e2c41d"
	)
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	put := func(s *Store, i int) {
		t.Helper()
		key := fmt.Sprintf("t%d/http://site%d.example/p%d", i%3, i%5, i%24)
		filler := make([]byte, 20+rng.Intn(120))
		rng.Read(filler)
		body := fmt.Sprintf("<html><title>version %d of %s</title><body>%x</body></html>", i, key, filler)
		if err := s.Put(key, Meta{FetchedAt: float64(i) / 4, Status: 200 + i%3*100}, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 110; i++ {
		put(s, i)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Options{MaxSegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	put(s, 110)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := recordDigest(t, dir); got != wantRecords {
		t.Errorf("record regions digest %s, want %s", got, wantRecords)
	}
	if got := segmentDigest(t, dir); got != wantFiles {
		t.Errorf("segment files digest %s, want %s", got, wantFiles)
	}
}
