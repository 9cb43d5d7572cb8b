package pagestore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildMultiSegmentFixture writes a store with many small segments,
// including re-Puts of the same keys spread across segment boundaries so
// the latest-version-wins merge actually has versions to arbitrate.
// Returns the directory and the expected latest body per key.
func buildMultiSegmentFixture(t *testing.T) (string, map[string]string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	want := map[string]string{}
	for round := 0; round < 6; round++ {
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("k%02d", i)
			// Incompressible filler forces frequent rotation; the tag
			// makes each version distinguishable.
			filler := make([]byte, 200)
			rng.Read(filler)
			body := fmt.Sprintf("round%d-%s-%x", round, key, filler)
			if err := s.Put(key, Meta{FetchedAt: float64(round), Status: 200}, []byte(body)); err != nil {
				t.Fatal(err)
			}
			want[key] = body
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("fixture built only %d segments; parallel scan untested", len(segs))
	}
	return dir, want
}

// scanIndex runs Open's index rebuild alone at a chosen worker count;
// Open itself always scans with GOMAXPROCS workers.
func scanIndex(dir string, workers int) (*Store, error) {
	s := &Store{dir: dir, index: map[string]location{}, actEntries: map[string]int64{}, blooms: map[int]segBloom{}}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	_, err = s.rebuildIndex(segs, workers)
	return s, err
}

// TestParallelScanMatchesSequential pins the satellite contract of the
// parallel index rebuild: for any worker count the rebuilt index is
// identical to the sequential scan's, and every key resolves to its
// latest version.
func TestParallelScanMatchesSequential(t *testing.T) {
	dir, want := buildMultiSegmentFixture(t)

	seq, err := scanIndex(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		par, err := scanIndex(dir, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(par.index) != len(seq.index) {
			t.Fatalf("workers=%d: index size %d, sequential %d", workers, len(par.index), len(seq.index))
		}
		for k, loc := range seq.index {
			if got, ok := par.index[k]; !ok || got != loc {
				t.Fatalf("workers=%d: index[%q] = %+v, sequential %+v", workers, k, got, loc)
			}
		}
	}
	// The index Open builds is that one too, and resolves every key to
	// its latest version.
	s := open(t, dir, Options{MaxSegmentBytes: 2048})
	if len(s.index) != len(seq.index) {
		t.Fatalf("Open: index size %d, sequential %d", len(s.index), len(seq.index))
	}
	for k, body := range want {
		if s.index[k] != seq.index[k] {
			t.Fatalf("Open: index[%q] = %+v, sequential %+v", k, s.index[k], seq.index[k])
		}
		meta, got, err := s.Get(k)
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if string(got) != body {
			t.Fatalf("Get(%q) returned a stale version", k)
		}
		if meta.FetchedAt != 5 {
			t.Fatalf("Get(%q) meta.FetchedAt = %g, want latest round", k, meta.FetchedAt)
		}
	}
}

// TestParallelScanTornTail checks that crash recovery still truncates the
// torn tail of the newest segment when that segment is scanned by a
// worker goroutine.
func TestParallelScanTornTail(t *testing.T) {
	dir, want := buildMultiSegmentFixture(t)
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("seg-%06d.dat", segs[len(segs)-1]))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, err := scanIndex(dir, 8); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, Options{MaxSegmentBytes: 2048})
	// Exactly one record (the torn tail) is lost; every surviving key
	// still reads back.
	if got := s.Len(); got != len(want) && got != len(want)-1 {
		t.Fatalf("Len = %d, want %d or %d", got, len(want), len(want)-1)
	}
	for k := range want {
		if !s.Has(k) {
			continue // the torn record's key reverted or vanished; fine
		}
		if _, _, err := s.Get(k); err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
	}
	if err := s.Put("post-recovery", Meta{Status: 200}, []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

// TestParallelScanReportsEarliestError checks that a corrupt record in an
// early segment is reported as that segment's error even when later
// segments are scanned concurrently (and possibly finish first). Footers
// are stripped first: with a valid footer the corrupt record body is
// never read on Open (the per-record CRC still rejects it at Get time),
// so only the legacy scan path reports corruption at open.
func TestParallelScanReportsEarliestError(t *testing.T) {
	dir, _ := buildMultiSegmentFixture(t)
	stripFooters(t, dir)
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("seg-%06d.dat", segs[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[5] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = scanIndex(dir, 8)
	if err == nil {
		t.Fatal("corrupt early segment accepted")
	}
	if want := fmt.Sprintf("segment %d ", segs[0]); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the earliest corrupt segment (%s)", err, want)
	}
}
