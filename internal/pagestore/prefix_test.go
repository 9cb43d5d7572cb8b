package pagestore

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// buildLabelledFixture writes three crawl labels one after the other
// into segments of maxSeg bytes (at 2 KiB early segments hold t1 only),
// then re-Puts part of t1 so its live records are split across both ends
// of the store. It returns the directory, still closed.
func buildLabelledFixture(t *testing.T, maxSeg int64) string {
	t.Helper()
	dir := t.TempDir()
	s := open(t, dir, Options{MaxSegmentBytes: maxSeg})
	rng := rand.New(rand.NewSource(11))
	put := func(label string, i, version int) {
		filler := make([]byte, 150)
		rng.Read(filler)
		body := fmt.Sprintf("%s-p%02d-v%d-%x", label, i, version, filler)
		if err := s.Put(fmt.Sprintf("%s/p%02d", label, i), Meta{FetchedAt: float64(version), Status: 200}, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	for _, label := range []string{"t1", "t2", "t3"} {
		for i := 0; i < 20; i++ {
			put(label, i, 0)
		}
	}
	for i := 0; i < 20; i += 3 {
		put("t1", i, 1)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// requirePrefixIsFilter fails unless, on every segment and for every
// prefix, ReadStoredPrefix returns exactly the unprefixed read's records
// under the prefix, in its order.
func requirePrefixIsFilter(t *testing.T, s *Store, stage string) {
	t.Helper()
	for _, seg := range s.SegmentIDs() {
		all, err := s.ReadStoredPrefix(seg, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, prefix := range []string{"", "t1/", "t2/", "t3/", "t3/p1", "t", "zz/"} {
			var want []StoredRecord
			for _, r := range all {
				if strings.HasPrefix(r.Key, prefix) {
					want = append(want, r)
				}
			}
			got, err := s.ReadStoredPrefix(seg, prefix)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: segment %d prefix %q: %d records, want %d (or they differ)", stage, seg, prefix, len(got), len(want))
			}
		}
	}
}

// TestReadStoredPrefix: the prefixed read is the filtered unprefixed
// read, and what it streams is a function of the live set, not of the
// layout: the same Puts into 2 KiB segments and into one 64 MiB segment
// stream the same records under every prefix.
func TestReadStoredPrefix(t *testing.T) {
	var layouts [2]map[string][]StoredRecord
	for i, maxSeg := range []int64{2048, 64 << 20} {
		s := open(t, buildLabelledFixture(t, maxSeg), Options{MaxSegmentBytes: maxSeg})
		stage := fmt.Sprintf("%d-byte segments", maxSeg)
		requirePrefixIsFilter(t, s, stage)
		layouts[i] = map[string][]StoredRecord{}
		for _, prefix := range []string{"", "t1/", "t2/", "t3/p1", "zz/"} {
			for _, seg := range s.SegmentIDs() {
				recs, err := s.ReadStoredPrefix(seg, prefix)
				if err != nil {
					t.Fatal(err)
				}
				layouts[i][prefix] = append(layouts[i][prefix], recs...)
			}
		}
		if n := len(s.SegmentIDs()); (n > 1) != (maxSeg == 2048) {
			t.Fatalf("%s: the live records span %d segments", stage, n)
		}
	}
	if !reflect.DeepEqual(layouts[0], layouts[1]) {
		t.Fatal("the two layouts stream different records")
	}
	if len(layouts[0][""]) != 60 {
		t.Fatalf("streamed %d live records, want 60", len(layouts[0][""]))
	}
}

// TestReadStoredPrefixTouchesOnlyMatches proves the filter runs before any
// I/O or verification: a segment file with no matching key can be gone,
// and a damaged record outside the prefix goes unnoticed, while the
// unprefixed read reports both — and a damaged record inside the prefix
// still fails the prefixed read.
func TestReadStoredPrefixTouchesOnlyMatches(t *testing.T) {
	dir := buildLabelledFixture(t, 2048)
	s := open(t, dir, Options{MaxSegmentBytes: 2048})
	defer s.Close()

	// labelsIn maps each label with a live record homed in seg to the
	// offset of its first such record.
	labelsIn := func(seg int) map[string]int64 {
		first := map[string]int64{}
		for k, loc := range s.index {
			if loc.seg == seg {
				if off, ok := first[k[:2]]; !ok || loc.offset < off {
					first[k[:2]] = loc.offset
				}
			}
		}
		return first
	}
	var t2Only, mixed int
	for _, seg := range s.SegmentIDs() {
		in := labelsIn(seg)
		_, has1 := in["t1"]
		_, has2 := in["t2"]
		_, has3 := in["t3"]
		switch {
		case has2 && !has1 && !has3 && t2Only == 0:
			t2Only = seg
		case has2 && has3 && mixed == 0:
			mixed = seg
		}
	}
	if t2Only == 0 || mixed == 0 {
		t.Fatalf("fixture has no t2-only (%d) or t2+t3 (%d) segment", t2Only, mixed)
	}

	if err := os.Remove(s.segPath(t2Only)); err != nil {
		t.Fatal(err)
	}
	if recs, err := s.ReadStoredPrefix(t2Only, "t3/"); err != nil || recs != nil {
		t.Fatalf("prefixed read of a segment without matches: %d records, err %v", len(recs), err)
	}
	if _, err := s.ReadStoredPrefix(t2Only, ""); err == nil {
		t.Fatal("unprefixed read of a removed segment succeeded")
	}

	// Flip one byte inside the first live t2 record of the mixed segment.
	path := s.segPath(mixed)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(label string) {
		data[labelsIn(mixed)[label]+12] ^= 0x5a
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flip("t2")
	if recs, err := s.ReadStoredPrefix(mixed, "t3/"); err != nil || len(recs) == 0 {
		t.Fatalf("prefixed read beside a damaged foreign record: %d records, err %v", len(recs), err)
	}
	if _, err := s.ReadStoredPrefix(mixed, ""); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unprefixed read over a damaged record: %v, want ErrCorrupt", err)
	}
	flip("t3")
	if _, err := s.ReadStoredPrefix(mixed, "t3/"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("prefixed read over a damaged matching record: %v, want ErrCorrupt", err)
	}
}

// zeroStream is the deflate stream of n zero bytes (~n/1000 bytes long).
func zeroStream(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 1<<16)
	for n > 0 {
		m := min(n, len(chunk))
		if _, err := fw.Write(chunk[:m]); err != nil {
			t.Fatal(err)
		}
		n -= m
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBodyLimitsHoldOnBothSides: what the read path would reject as
// corrupt, the write path refuses to store — a body over the limit raw,
// or over it once compressed — and the read path stops inflating one
// byte past the limit instead of trusting the stream.
func TestBodyLimitsHoldOnBothSides(t *testing.T) {
	const limit = 1000
	deflate := func(body []byte, limit int) ([]byte, error) {
		z := deflaters.Get().(*deflater)
		defer z.release()
		c, err := z.deflate(body, limit)
		return bytes.Clone(c), err
	}
	if _, err := deflate(make([]byte, limit+1), limit); err == nil {
		t.Fatal("deflate accepted a body over the limit")
	}
	noise := make([]byte, limit) // incompressible: flate's framing pushes it over
	rand.New(rand.NewSource(3)).Read(noise)
	if _, err := deflate(noise, limit); err == nil {
		t.Fatal("deflate accepted a body that compresses to more than the limit")
	}
	c, err := deflate(make([]byte, limit), limit)
	if err != nil {
		t.Fatal(err)
	}
	if body, err := inflate(c, limit); err != nil || !bytes.Equal(body, make([]byte, limit)) {
		t.Fatalf("round trip at the limit: %d bytes, err %v", len(body), err)
	}
	if _, err := inflate(zeroStream(t, limit+1), limit); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("inflate one byte past the limit: %v, want ErrCorrupt", err)
	}
	if _, err := inflate(c[:len(c)-2], limit); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("inflate of a truncated stream: %v, want ErrCorrupt", err)
	}

	// Put applies the store's limit before anything reaches the segment.
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Put("big", Meta{}, make([]byte, maxBodyLen+1)); err == nil {
		t.Fatal("Put accepted a body over maxBodyLen")
	}
	if s.Len() != 0 || s.active.size != 0 {
		t.Fatalf("refused Put left %d keys, %d bytes", s.Len(), s.active.size)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGetStopsAtBodyLimit: a well-formed, CRC-clean record whose ~64 KB
// stream inflates past maxBodyLen is corrupt, not a 64 MiB allocation
// that keeps growing; and the scratch it grew is not kept by the pool.
func TestGetStopsAtBodyLimit(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("inflates 64 MiB (~200 MB resident, ~600 MB under the race detector)")
	}
	stream := zeroStream(t, maxBodyLen+1)
	if len(stream) > 1<<17 {
		t.Fatalf("crafted stream is %d bytes", len(stream))
	}
	dir := t.TempDir()
	rec := appendRecord(nil, "bomb", Meta{Status: 200}, stream)
	rec = appendRecord(rec, "fine", Meta{Status: 200}, zeroStream(t, 2*maxPooledScratch))
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.dat"), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, Options{})
	defer s.Close()
	if _, _, err := s.Get("bomb"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of a record inflating past maxBodyLen: %v, want ErrCorrupt", err)
	}
	if _, body, err := s.Get("fine"); err != nil || len(body) != 2*maxPooledScratch {
		t.Fatalf("Get of a 2 MiB body: %d bytes, err %v", len(body), err)
	}
	// Whatever inflaters the pool hands back now, none kept a big buffer.
	var held []*inflater
	for i := 0; i < 8; i++ {
		z := inflaters.Get().(*inflater)
		if cap(z.buf) > maxPooledScratch {
			t.Fatalf("pooled inflater holds a %d-byte scratch", cap(z.buf))
		}
		held = append(held, z)
	}
	for _, z := range held {
		inflaters.Put(z)
	}
}
