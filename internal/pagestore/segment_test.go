package pagestore

import (
	"bytes"
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

// TestSegmentBytesPinned pins the bytes every write path leaves on disk:
// Puts with overwrites across rotations at a small segment size, a
// Compact, Puts onto the compacted tail, and a reopen that appends to
// it. Records, rotation thresholds, footers and segment ids all feed the
// digest.
func TestSegmentBytesPinned(t *testing.T) {
	const want = "77a648d2a53ea0c1ba84ed8f346f7c2cc5f7acfdf814597f6175b182cb20cde2"
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
	for i := 0; i < 80; i++ {
		put(s, i)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 80; i < 110; i++ {
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
	if got := segmentDigest(t, dir); got != want {
		t.Fatalf("segment files digest %s, want %s", got, want)
	}
}

// TestCompactWritesWhatPutWrites: compacting a store writes the segment
// files an empty store gets from Putting the same live records in
// (segment, offset) order — the same record bytes, rotation points and
// footers, only the segment ids differ.
func TestCompactWritesWhatPutWrites(t *testing.T) {
	dir, _ := buildMultiSegmentFixture(t)
	opts := Options{MaxSegmentBytes: 2048}
	s := open(t, dir, opts)
	var recs []Record
	for _, id := range s.SegmentIDs() {
		rs, err := s.ReadLive(id)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rs...)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := t.TempDir()
	p := open(t, fresh, opts)
	for _, r := range recs {
		if err := p.Put(r.Key, r.Meta, r.Body); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	compacted, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	put, err := listSegments(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if len(compacted) != len(put) || len(put) < 2 {
		t.Fatalf("compact wrote %d segments, Put %d (want equal, at least 2)", len(compacted), len(put))
	}
	for i := range put {
		a, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("seg-%06d.dat", compacted[i])))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(fresh, fmt.Sprintf("seg-%06d.dat", put[i])))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("segment %d of %d: compact wrote %d bytes, Put %d, and they differ", i+1, len(put), len(a), len(b))
		}
	}
}
