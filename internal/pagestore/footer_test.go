package pagestore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"pagequality/internal/randx"
)

// footerOf returns the valid footer of the segment file at path, or nil
// when it has none.
func footerOf(t testing.TB, path string) *footer {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	ft, _, err := readFooter(f, st.Size())
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// stripFooters rewrites every sealed segment in dir as a bare record
// stream (the pre-footer, legacy on-disk format) by truncating the file
// at the footer's dataLen.
func stripFooters(t testing.TB, dir string) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range segs {
		path := fmt.Sprintf("%s/seg-%06d.dat", dir, id)
		if ft := footerOf(t, path); ft != nil {
			if err := os.Truncate(path, ft.dataLen); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// indexSnapshot captures a store's key index for equality comparison.
func indexSnapshot(t *testing.T, dir string, opts Options) map[string]location {
	t.Helper()
	s := open(t, dir, opts)
	got := make(map[string]location, len(s.index))
	s.mu.Lock()
	for k, loc := range s.index {
		got[k] = loc
	}
	s.mu.Unlock()
	return got
}

// TestOpenUsesFooters pins the O(index) cold-start contract: on a
// multi-segment store built through rotation, every sealed segment is
// indexed from its footer and only the unsealed active tail is scanned.
func TestOpenUsesFooters(t *testing.T) {
	dir, want := buildMultiSegmentFixture(t)
	s := open(t, dir, Options{MaxSegmentBytes: 2048})
	if s.footerSegments == 0 {
		t.Fatal("no segment was indexed from its footer")
	}
	if s.scannedSegments > 1 {
		t.Fatalf("%d segments scanned; only the active tail may be", s.scannedSegments)
	}
	for k, body := range want {
		_, got, err := s.Get(k)
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if string(got) != body {
			t.Fatalf("Get(%q) = %q, want %q", k, got, body)
		}
	}
	// Sealed segments are immutable: the reused store appends to the
	// unsealed tail or a fresh segment, never a sealed one.
	if err := s.Put("fresh", Meta{Status: 200}, []byte("post-open")); err != nil {
		t.Fatal(err)
	}
}

// TestOpenFooterFallback is the robustness table: every way a footer can
// be damaged must fall back to the record scan and produce an index
// identical to the footer path's (which equals the legacy full-scan
// index by TestOpenMatchesLegacyScan).
func TestOpenFooterFallback(t *testing.T) {
	cases := []struct {
		name string
		// damage mutates one sealed segment file given its bytes and
		// parsed footer; returns the new file contents.
		damage func(data []byte, ft *footer) []byte
	}{
		{"trailer magic zapped", func(data []byte, ft *footer) []byte {
			data[len(data)-1] ^= 0xff
			return data
		}},
		{"footer crc zapped", func(data []byte, ft *footer) []byte {
			data[len(data)-footTrailerLen] ^= 0xff
			return data
		}},
		{"footer truncated mid-body", func(data []byte, ft *footer) []byte {
			cut := ft.dataLen + (int64(len(data))-ft.dataLen)/2
			return data[:cut]
		}},
		{"foot magic byte zapped", func(data []byte, ft *footer) []byte {
			data[ft.dataLen] ^= 0xff
			return data
		}},
		{"footer removed entirely", func(data []byte, ft *footer) []byte {
			return data[:ft.dataLen]
		}},
		{"entry bytes zapped", func(data []byte, ft *footer) []byte {
			data[ft.dataLen+8] ^= 0xff // inside the first fence entry
			return data
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, want := buildMultiSegmentFixture(t)
			clean := indexSnapshot(t, dir, Options{MaxSegmentBytes: 2048})

			// Damage the first sealed segment.
			segs, err := listSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			path := fmt.Sprintf("%s/seg-%06d.dat", dir, segs[0])
			ft := footerOf(t, path)
			if ft == nil {
				t.Fatal("first segment is not sealed; fixture too small")
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(data, ft), 0o644); err != nil {
				t.Fatal(err)
			}

			s := open(t, dir, Options{MaxSegmentBytes: 2048})
			if s.scannedSegments < 2 { // damaged segment + active tail
				t.Fatalf("damaged segment was not scan-indexed (scanned=%d)", s.scannedSegments)
			}
			s.mu.Lock()
			got := make(map[string]location, len(s.index))
			for k, loc := range s.index {
				got[k] = loc
			}
			s.mu.Unlock()
			if !reflect.DeepEqual(got, clean) {
				t.Fatalf("fallback index differs from footer index:\ngot  %v\nwant %v", got, clean)
			}
			for k, body := range want {
				_, g, err := s.Get(k)
				if err != nil {
					t.Fatalf("Get(%q): %v", k, err)
				}
				if string(g) != body {
					t.Fatalf("Get(%q) = %q, want %q", k, g, body)
				}
			}
		})
	}
}

// TestOpenMatchesLegacyScan: a store with all footers stripped (the
// pre-footer on-disk format) opens to the same index and contents.
func TestOpenMatchesLegacyScan(t *testing.T) {
	dir, want := buildMultiSegmentFixture(t)
	footered := indexSnapshot(t, dir, Options{MaxSegmentBytes: 2048})
	stripFooters(t, dir)
	s := open(t, dir, Options{MaxSegmentBytes: 2048})
	if s.footerSegments != 0 {
		t.Fatal("stripped store still claims footer segments")
	}
	s.mu.Lock()
	got := make(map[string]location, len(s.index))
	for k, loc := range s.index {
		got[k] = loc
	}
	s.mu.Unlock()
	if !reflect.DeepEqual(got, footered) {
		t.Fatal("legacy scan index differs from footer index")
	}
	for k, body := range want {
		_, g, err := s.Get(k)
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if string(g) != body {
			t.Fatalf("Get(%q) mismatch", k)
		}
	}
}

// version1Footer is the footer the store wrote before version 2: the
// same layout with bloomK, bloomLen and a bloom filter (4 probes, ~10
// bits a key, a power of two of at least 8 bytes) between dataLen and
// the entries.
func version1Footer(ft *footer) []byte {
	size := 8
	for size*8 < len(ft.entries)*10 {
		size *= 2
	}
	bloom := make([]byte, size)
	for _, e := range ft.entries {
		h1 := randx.Key(e.key)
		h2 := h1 ^ h1>>30
		h2 *= 0xbf58476d1ce4e5b9
		h2 ^= h2 >> 27
		h2 *= 0x94d049bb133111eb
		h2 ^= h2 >> 31
		h2 |= 1
		for i := uint64(0); i < 4; i++ {
			bit := (h1 + i*h2) & uint64(size*8-1)
			bloom[bit>>3] |= 1 << (bit & 7)
		}
	}
	body := binary.AppendUvarint(nil, 1)
	body = binary.AppendUvarint(body, uint64(len(ft.entries)))
	body = binary.AppendUvarint(body, uint64(ft.dataLen))
	body = binary.AppendUvarint(body, 4)
	body = binary.AppendUvarint(body, uint64(size))
	body = append(body, bloom...)
	for _, e := range ft.entries {
		body = binary.AppendUvarint(body, uint64(len(e.key)))
		body = append(body, e.key...)
		body = binary.AppendUvarint(body, uint64(e.off))
	}
	out := append([]byte{footMagic}, body...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	return append(out, footTrailer[:]...)
}

// TestOpenVersion1Footers: a store whose sealed segments carry
// version-1 footers opens by the record scan to the index its
// version-2 footers give, streams every record, and leaves every sealed
// file as it was.
func TestOpenVersion1Footers(t *testing.T) {
	dir, want := buildMultiSegmentFixture(t)
	opts := Options{MaxSegmentBytes: 2048}
	v2 := indexSnapshot(t, dir, opts)
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	sealed := map[string][]byte{}
	for _, id := range segs {
		path := filepath.Join(dir, fmt.Sprintf("seg-%06d.dat", id))
		ft := footerOf(t, path)
		if ft == nil {
			continue // the unsealed tail
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data[:ft.dataLen], version1Footer(ft)...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sealed[path] = data
	}
	if len(sealed) < 3 {
		t.Fatalf("only %d sealed segments", len(sealed))
	}

	s := open(t, dir, opts)
	if s.footerSegments != 0 {
		t.Fatalf("%d version-1 footers decoded", s.footerSegments)
	}
	if !reflect.DeepEqual(s.index, v2) {
		t.Fatal("the version-1 store's index differs from the version-2 store's")
	}
	seen := map[string]string{}
	for _, id := range s.SegmentIDs() {
		recs, err := s.ReadLive(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			seen[r.Key] = string(r.Body)
		}
	}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("ReadLive streamed %d records, want %d (or they differ)", len(seen), len(want))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for path, data := range sealed {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s changed on disk (err %v)", filepath.Base(path), err)
		}
	}
}

// TestInterruptedSealRecovered: a crash mid-seal leaves a partial footer
// on the newest segment; Open must truncate the debris and keep the
// segment appendable.
func TestInterruptedSealRecovered(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", Meta{Status: 200}, []byte("body-a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Hand-write a partial footer: magic plus half the body, no trailer.
	path := fmt.Sprintf("%s/seg-%06d.dat", dir, 1)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	dataLen := st.Size()
	foot := encodeFooter(map[string]int64{"a": 0}, dataLen)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(foot[:len(foot)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, Options{})
	if _, _, err := s2.Get("a"); err != nil {
		t.Fatalf("record lost to footer debris: %v", err)
	}
	if err := s2.Put("b", Meta{Status: 200}, []byte("body-b")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := open(t, dir, Options{})
	for _, k := range []string{"a", "b"} {
		if _, _, err := s3.Get(k); err != nil {
			t.Fatalf("Get(%q) after recovery: %v", k, err)
		}
	}
}

func compressBody(t *testing.T, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadLivePartition: SegmentIDs + ReadLive partition the live set —
// every live key exactly once, bodies matching Get, in offset order.
func TestReadLivePartition(t *testing.T) {
	dir, want := buildMultiSegmentFixture(t)
	s := open(t, dir, Options{MaxSegmentBytes: 2048})
	seen := make(map[string]string)
	for _, id := range s.SegmentIDs() {
		recs, err := s.ReadLive(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if _, dup := seen[r.Key]; dup {
				t.Fatalf("key %q streamed twice", r.Key)
			}
			seen[r.Key] = string(r.Body)
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("streamed %d keys, want %d", len(seen), len(want))
	}
	for k, body := range want {
		if seen[k] != body {
			t.Fatalf("ReadLive body for %q differs from latest version", k)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadLive(1); !errors.Is(err, ErrClosed) {
		t.Fatal("ReadLive on closed store accepted")
	}
}

// hostileFooter is a checksummed footer that is well formed up to its
// entries and claims one fence entry per record byte of a dataLen
// segment, but carries none. On a 64 MiB segment it is 26 bytes long.
func hostileFooter(dataLen int64) []byte {
	body := binary.AppendUvarint(nil, footVersion)
	body = binary.AppendUvarint(body, uint64(dataLen)) // count
	body = binary.AppendUvarint(body, uint64(dataLen))
	out := append([]byte{footMagic}, body...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	return append(out, footTrailer[:]...)
}

// TestFooterAllocationBoundedByInput: the entry count is bounded by the
// entry bytes present (three per entry) before anything is allocated,
// so the hostile
// footer at the end of a default-size (sparse) segment allocates less
// than a MiB and sends Open to the record scan.
func TestFooterAllocationBoundedByInput(t *testing.T) {
	const dataLen = defaultMaxSeg
	foot := hostileFooter(dataLen)
	f, err := os.Create(filepath.Join(t.TempDir(), "seg-000001.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(foot, dataLen); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ft, evidence, err := readFooter(f, dataLen+int64(len(foot)))
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("a %d-byte footer allocated %d MiB", len(foot), alloc>>20)
	}
	if ft != nil || !evidence || err != nil {
		t.Fatalf("readFooter = %v, %v, %v; want the scan fallback (nil, true, nil)", ft, evidence, err)
	}
}

// FuzzDecodeFooter: arbitrary bytes as a footer body never panic the
// decoder, which allocates at most a constant times the body. A body that
// decodes has non-empty, strictly sorted keys and offsets below dataLen,
// and encodeFooter writes exactly that body for those entries.
func FuzzDecodeFooter(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, dataLen int64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ft, ok := decodeFooterBody(body, dataLen)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10+32*uint64(len(body)) {
			t.Fatalf("a %d-byte body allocated %d bytes", len(body), alloc)
		}
		if !ok {
			return
		}
		entries := make(map[string]int64, len(ft.entries))
		for i, e := range ft.entries {
			if e.key == "" || i > 0 && e.key <= ft.entries[i-1].key || e.off < 0 || e.off >= dataLen {
				t.Fatalf("entry %d (%q at %d) of %d accepted with dataLen %d", i, e.key, e.off, len(ft.entries), dataLen)
			}
			entries[e.key] = e.off
		}
		foot := encodeFooter(entries, dataLen)
		if again := foot[1 : len(foot)-footTrailerLen]; !bytes.Equal(again, body) {
			t.Fatalf("accepted body %x re-encodes as %x", body, again)
		}
	})
}

// TestFooterDecodeRejectsGarbage fuzzes the decoder lightly: random and
// structurally-damaged bodies must never decode successfully.
func TestFooterDecodeRejectsGarbage(t *testing.T) {
	foot := encodeFooter(map[string]int64{"a": 0, "b": 100}, 200)
	body := foot[1 : len(foot)-footTrailerLen]
	if _, ok := decodeFooterBody(append([]byte(nil), body...), 200); !ok {
		t.Fatal("control: pristine body must decode")
	}
	if _, ok := decodeFooterBody(append([]byte(nil), body...), 199); ok {
		t.Fatal("dataLen mismatch accepted")
	}
	for i := range body {
		mut := append([]byte(nil), body...)
		mut[i] ^= 0x5a
		ft, ok := decodeFooterBody(mut, 200)
		// A bit flip may legally survive inside a key that stays sorted;
		// anything touching structure must fail or keep entries
		// well-formed.
		if ok {
			if len(ft.entries) > 2 {
				t.Fatalf("byte %d: mutated body decoded to %d entries", i, len(ft.entries))
			}
			for _, e := range ft.entries {
				if e.off >= 200 {
					t.Fatalf("byte %d: entry offset %d out of range", i, e.off)
				}
			}
		}
	}
}
