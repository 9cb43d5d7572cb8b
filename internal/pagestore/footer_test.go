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
)

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
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			t.Fatal(err)
		}
		ft, _, err := readFooter(f, st.Size())
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ft == nil {
			continue // unsealed
		}
		if err := os.Truncate(path, ft.dataLen); err != nil {
			t.Fatal(err)
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
	if s.openStats.footerSegments == 0 {
		t.Fatal("no segment was indexed from its footer")
	}
	if s.openStats.scannedSegments > 1 {
		t.Fatalf("%d segments scanned; only the active tail may be", s.openStats.scannedSegments)
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
		{"bloom bits zapped", func(data []byte, ft *footer) []byte {
			data[ft.dataLen+8] ^= 0xff // inside the footer body
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
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			st, err := f.Stat()
			if err != nil {
				t.Fatal(err)
			}
			ft, _, err := readFooter(f, st.Size())
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
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
			if s.openStats.scannedSegments < 2 { // damaged segment + active tail
				t.Fatalf("damaged segment was not scan-indexed (scanned=%d)", s.openStats.scannedSegments)
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
	if s.openStats.footerSegments != 0 {
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
	foot, _ := encodeFooter(map[string]int64{"a": 0}, dataLen)
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
	if !s2.Has("a") {
		t.Fatal("record lost to footer debris")
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

// TestBloomNoFalseNegatives: every sealed key answers true; unknown keys
// mostly answer false (the filter is sized for ~1% false positives).
func TestBloomNoFalseNegatives(t *testing.T) {
	dir, want := buildMultiSegmentFixture(t)
	s := open(t, dir, Options{MaxSegmentBytes: 2048})
	s.mu.Lock()
	locs := make(map[string]location, len(s.index))
	for k, loc := range s.index {
		locs[k] = loc
	}
	nSealed := len(s.blooms)
	s.mu.Unlock()
	if nSealed == 0 {
		t.Fatal("no sealed segments")
	}
	for k := range want {
		if !s.MayContain(locs[k].seg, k) {
			t.Fatalf("false negative: %q in segment %d", k, locs[k].seg)
		}
	}
	// False-positive rate across sealed segments.
	segs := s.SegmentIDs()
	probes, hits := 0, 0
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("absent-key-%06d", i)
		for _, seg := range segs {
			s.mu.Lock()
			_, sealed := s.blooms[seg]
			s.mu.Unlock()
			if !sealed {
				continue
			}
			probes++
			if s.MayContain(seg, k) {
				hits++
			}
		}
	}
	if probes == 0 {
		t.Fatal("no sealed segments probed")
	}
	if rate := float64(hits) / float64(probes); rate > 0.05 {
		t.Fatalf("bloom false-positive rate %.3f; want <= 0.05", rate)
	}
	// Unsealed segments conservatively answer true.
	if !s.MayContain(99999, "anything") {
		t.Fatal("unknown segment must answer true")
	}
}

// TestCompactRotatesAndSeals: compaction output respects the segment
// size threshold and seals every filled segment, so a post-compact Open
// is footer-indexed except for the active tail.
func TestCompactRotatesAndSeals(t *testing.T) {
	dir, want := buildMultiSegmentFixture(t)
	s := open(t, dir, Options{MaxSegmentBytes: 2048})
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("compact produced %d segments; want rotation at 2048 bytes", len(segs))
	}
	for k, body := range want {
		_, g, err := s.Get(k)
		if err != nil {
			t.Fatalf("Get(%q) after compact: %v", k, err)
		}
		if string(g) != body {
			t.Fatalf("Get(%q) after compact mismatch", k)
		}
	}
	if err := s.Put("post-compact", Meta{Status: 200}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := open(t, dir, Options{MaxSegmentBytes: 2048})
	if s2.openStats.footerSegments < len(segs)-1 {
		t.Fatalf("only %d of %d compacted segments footer-indexed", s2.openStats.footerSegments, len(segs))
	}
	if s2.Len() != len(want)+1 {
		t.Fatalf("Len after compact+reopen = %d", s2.Len())
	}
}

// TestCompactFailureKeepsStoreUsable: when compaction cannot read a
// source segment, the store must clean up its partial output, restore
// the previous active segment and keep serving Puts and Gets.
func TestCompactFailureKeepsStoreUsable(t *testing.T) {
	dir, want := buildMultiSegmentFixture(t)
	s := open(t, dir, Options{MaxSegmentBytes: 2048})
	segsBefore, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: make the first live-bearing segment unreadable by
	// replacing it with a directory... os.Remove then mkdir keeps the
	// path occupied so ReadFile fails deterministically.
	victim := s.SegmentIDs()[0]
	vpath := fmt.Sprintf("%s/seg-%06d.dat", dir, victim)
	vdata, err := os.ReadFile(vpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(vpath); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(vpath, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err == nil {
		t.Fatal("compact of unreadable segment succeeded")
	}
	// Restore the bytes and verify the store never lost its state.
	if err := os.Remove(vpath); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(vpath, vdata, 0o644); err != nil {
		t.Fatal(err)
	}
	segsAfter, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(segsAfter, segsBefore) {
		t.Fatalf("failed compact changed the segment set: %v -> %v", segsBefore, segsAfter)
	}
	// The store stays writable (the old active segment was reopened)...
	if err := s.Put("after-failed-compact", Meta{Status: 200}, []byte("alive")); err != nil {
		t.Fatalf("Put after failed compact: %v", err)
	}
	// ...readable...
	for k, body := range want {
		_, g, err := s.Get(k)
		if err != nil {
			t.Fatalf("Get(%q) after failed compact: %v", k, err)
		}
		if string(g) != body {
			t.Fatalf("Get(%q) after failed compact mismatch", k)
		}
	}
	// ...and a retried compact succeeds.
	if err := s.Compact(); err != nil {
		t.Fatalf("retried compact: %v", err)
	}
	if _, _, err := s.Get("after-failed-compact"); err != nil {
		t.Fatal(err)
	}
}

// TestOpenAfterCompactAfterCrash emulates a crash mid-compaction: old
// segments plus a partial, torn compacted output on disk. Open must
// recover to exactly the live state.
func TestOpenAfterCompactAfterCrash(t *testing.T) {
	dir, want := buildMultiSegmentFixture(t)
	// Emulate the partial output a crashed Compact leaves behind: a new
	// highest-id segment holding copies of some live records, ending in
	// a torn record.
	s := open(t, dir, Options{MaxSegmentBytes: 2048})
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for _, id := range s.SegmentIDs() {
		rs, err := s.ReadLive(id)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rs...)
		if len(recs) >= 5 {
			break
		}
	}
	s.Close()
	partialID := segs[len(segs)-1] + 1
	var buf []byte
	for _, r := range recs[:3] {
		buf = appendRecord(buf, r.Key, r.Meta, compressBody(t, r.Body))
	}
	torn := appendRecord(nil, "torn-key", Meta{Status: 200}, compressBody(t, []byte("torn")))
	buf = append(buf, torn[:len(torn)-5]...)
	ppath := fmt.Sprintf("%s/seg-%06d.dat", dir, partialID)
	if err := os.WriteFile(ppath, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, Options{MaxSegmentBytes: 2048})
	if s2.Has("torn-key") {
		t.Fatal("torn compact record resurrected")
	}
	if s2.Len() != len(want) {
		t.Fatalf("Len after crash recovery = %d, want %d", s2.Len(), len(want))
	}
	for k, body := range want {
		_, g, err := s2.Get(k)
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if string(g) != body {
			t.Fatalf("Get(%q) after crash mismatch", k)
		}
	}
	// Round-trip: compact the recovered store and reopen once more.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := open(t, dir, Options{MaxSegmentBytes: 2048})
	if s3.Len() != len(want) {
		t.Fatalf("Len after compact round-trip = %d", s3.Len())
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
// bloom filter and claims one fence entry per record byte of a dataLen
// segment, but carries none. On a 64 MiB segment it is 36 bytes long.
func hostileFooter(dataLen int64) []byte {
	body := binary.AppendUvarint(nil, footVersion)
	body = binary.AppendUvarint(body, uint64(dataLen)) // count
	body = binary.AppendUvarint(body, uint64(dataLen))
	body = binary.AppendUvarint(body, bloomHashes)
	body = binary.AppendUvarint(body, 8)
	body = append(body, make([]byte, 8)...)
	out := append([]byte{footMagic}, body...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	return append(out, footTrailer[:]...)
}

// TestFooterAllocationBoundedByInput: the entry count is bounded by the
// footer bytes present before anything is allocated, so the hostile
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
// and encodeFooter's footer for those entries decodes back to them.
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
		foot, _ := encodeFooter(entries, dataLen)
		again, ok := decodeFooterBody(foot[1:len(foot)-footTrailerLen], dataLen)
		if !ok || !reflect.DeepEqual(again.entries, ft.entries) {
			t.Fatalf("re-encoded footer decodes to %v, %v; want %v", again, ok, ft.entries)
		}
	})
}

// TestFooterDecodeRejectsGarbage fuzzes the decoder lightly: random and
// structurally-damaged bodies must never decode successfully.
func TestFooterDecodeRejectsGarbage(t *testing.T) {
	foot, _ := encodeFooter(map[string]int64{"a": 0, "b": 100}, 200)
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
		// A bit flip may legally survive inside the bloom bits; anything
		// touching structure must fail or keep entries well-formed.
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
