package corpus

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"pagequality/internal/pagestore"
)

// bigSeg is a segment size the fixture fills less than once.
const bigSeg = 64 << 20

// buildStore writes a multi-segment fixture with overwrites across
// segment boundaries, returning the store and the expected latest body
// per key.
func buildStore(t testing.TB, tiny bool) (*pagestore.Store, map[string]string) {
	t.Helper()
	return buildStoreAt(t, t.TempDir(), tiny, 4096)
}

// buildStoreAt writes the fixture into dir in segments of maxSeg bytes:
// at 4 KiB it spans several, at bigSeg one.
func buildStoreAt(t testing.TB, dir string, tiny bool, maxSeg int64) (*pagestore.Store, map[string]string) {
	t.Helper()
	s, err := pagestore.Open(dir, pagestore.Options{MaxSegmentBytes: maxSeg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	rng := rand.New(rand.NewSource(11))
	want := map[string]string{}
	rounds, keys := 5, 40
	if tiny {
		rounds, keys = 1, 3
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < keys; i++ {
			label := "t1"
			if i%3 == 0 {
				label = "t2"
			}
			// Most keys are unique per round (live records span every
			// segment); every fifth key is overwritten each round so the
			// latest-version-wins path is exercised too.
			key := fmt.Sprintf("%s/site-%03d-r%d/page", label, i, round)
			if i%5 == 0 {
				key = fmt.Sprintf("%s/site-%03d/page", label, i)
			}
			filler := make([]byte, 120)
			rng.Read(filler)
			body := fmt.Sprintf("round%d key%03d %x", round, i, filler)
			if err := s.Put(key, pagestore.Meta{FetchedAt: float64(round), Status: 200 + i%2}, []byte(body)); err != nil {
				t.Fatal(err)
			}
			want[key] = body
		}
	}
	if n := len(s.SegmentIDs()); !tiny && (n < 3) != (maxSeg == bigSeg) {
		t.Fatalf("fixture spans %d segments of %d bytes", n, maxSeg)
	}
	return s, want
}

// TestExtractMatchesKeyWalk pins the parity lemma the CLI refactors
// lean on: Extract(identity) is byte-identical to the pre-refactor
// walk — Get per key, in key order. The walk's keys are the ones the
// fixture wrote, so the oracle does not read the store's index.
func TestExtractMatchesKeyWalk(t *testing.T) {
	s, written := buildStore(t, false)
	prefix := "t2/"

	// Pre-refactor walk.
	type rec struct {
		key  string
		meta pagestore.Meta
		body string
	}
	var want []rec
	for _, k := range sortedKeys(written, prefix) {
		meta, body, err := s.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != written[k] {
			t.Fatalf("Get(%q) = %q, the fixture wrote %q", k, body, written[k])
		}
		want = append(want, rec{k, meta, string(body)})
	}

	for _, workers := range []int{1, 2, 0} {
		got, err := Extract(s, func(d Doc) (rec, bool) {
			if !strings.HasPrefix(d.Key, prefix) {
				return rec{}, false
			}
			return rec{d.Key, d.Meta, string(d.Body)}, true
		}, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: Extract differs from key walk", workers)
		}
	}
}

// sortedKeys returns the keys of written that start with prefix, sorted.
func sortedKeys[V any](written map[string]V, prefix string) []string {
	var keys []string
	for k := range written {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// TestExtractLayoutInvariant: Extract's output is a function of the
// live document set alone — the same at workers 1, 2 and GOMAXPROCS,
// and for the same Puts into 4 KiB segments or into one segment.
func TestExtractLayoutInvariant(t *testing.T) {
	proj := func(d Doc) (string, bool) { return d.Key + ":" + string(d.Body), true }
	var want []string
	for _, maxSeg := range []int64{4096, bigSeg} {
		s, _ := buildStoreAt(t, t.TempDir(), false, maxSeg)
		for _, workers := range []int{1, 2, 0} {
			got, err := Extract(s, proj, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d-byte segments, workers=%d: Extract output changed", maxSeg, workers)
			}
		}
	}
}

// TestMapSegmentPartition: every live doc is projected exactly once —
// whichever segment homes it and whichever worker reads that segment —
// and the kept projections come back in key order.
func TestMapSegmentPartition(t *testing.T) {
	s, want := buildStore(t, false)
	for _, workers := range []int{1, 2, 0} {
		var mu sync.Mutex
		seen := map[string]int{}
		keys, err := Extract(s, func(d Doc) (string, bool) {
			mu.Lock()
			seen[d.Key]++
			mu.Unlock()
			return d.Key, true
		}, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != len(want) {
			t.Fatalf("workers=%d: projected %d distinct docs, want %d", workers, len(seen), len(want))
		}
		for k, n := range seen {
			if _, live := want[k]; !live || n != 1 {
				t.Fatalf("workers=%d: key %q projected %d times (live=%v)", workers, k, n, live)
			}
		}
		if len(keys) != len(want) || !sort.StringsAreSorted(keys) {
			t.Fatalf("workers=%d: %d keys (want %d), sorted=%v", workers, len(keys), len(want), sort.StringsAreSorted(keys))
		}
	}
}

// TestMapError: a segment that cannot be read aborts the pass; the
// earliest failing segment's error wins, whichever worker hit it first.
func TestMapError(t *testing.T) {
	dir := t.TempDir()
	s, _ := buildStoreAt(t, dir, false, 4096)
	ids := s.SegmentIDs()
	first, last := ids[0], ids[len(ids)-2] // both sealed; the active segment stays writable
	for _, id := range []int{first, last} {
		if err := os.Remove(filepath.Join(dir, fmt.Sprintf("seg-%06d.dat", id))); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 0} {
		_, err := Extract(s, func(d Doc) (string, bool) { return d.Key, true }, Options{Workers: workers})
		if !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("segment %d:", first)) {
			t.Fatalf("workers=%d: err %q does not name the earliest failing segment %d", workers, err, first)
		}
	}
}

// TestVerbsOnTinyStore: fewer segments than workers, single segment,
// empty results.
func TestVerbsOnTinyStore(t *testing.T) {
	s, want := buildStore(t, true)
	keys, err := Extract(s, func(d Doc) (string, bool) { return d.Key, true }, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(want) {
		t.Fatalf("%d keys, want %d", len(keys), len(want))
	}
	none, err := Extract(s, func(Doc) (string, bool) { return "", false }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("empty projection kept %d", len(none))
	}
}

// TestExtractKeyPrefix: a pass with Options.KeyPrefix equals the
// unrestricted pass with the same test inside the projection — at every
// worker count, and for the same Puts into 4 KiB segments or into one
// segment.
func TestExtractKeyPrefix(t *testing.T) {
	line := func(d Doc) string { return fmt.Sprintf("%s %v %s", d.Key, d.Meta, d.Body) }
	wants := map[string][]string{}
	for _, maxSeg := range []int64{4096, bigSeg} {
		s, _ := buildStoreAt(t, t.TempDir(), false, maxSeg)
		for _, prefix := range []string{"", "t1/", "t2/", "t2/site-00", "t", "none/"} {
			want, err := Extract(s, func(d Doc) (string, bool) {
				return line(d), strings.HasPrefix(d.Key, prefix)
			}, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if (len(want) == 0) != (prefix == "none/") {
				t.Fatalf("%d-byte segments: prefix %q selects %d documents", maxSeg, prefix, len(want))
			}
			if first, ok := wants[prefix]; ok && !reflect.DeepEqual(want, first) {
				t.Fatalf("prefix %q: the two layouts select different documents", prefix)
			}
			wants[prefix] = want
			for _, workers := range []int{1, 2, 8} {
				got, err := Extract(s, func(d Doc) (string, bool) { return line(d), true },
					Options{Workers: workers, KeyPrefix: prefix})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%d-byte segments, prefix %q, workers=%d: %d documents, want %d (or they differ)", maxSeg, prefix, workers, len(got), len(want))
				}
			}
		}
	}
}

// TestExtractKeyPrefixSkipsSegments: segments holding no key under the
// prefix are not touched — with such a segment's file gone the prefixed
// pass still succeeds, while the unrestricted pass reports the read
// error.
func TestExtractKeyPrefixSkipsSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := pagestore.Open(dir, pagestore.Options{MaxSegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, label := range []string{"t1", "t2", "t3"} { // one crawl after the other
		for i := 0; i < 30; i++ {
			filler := make([]byte, 120)
			rng.Read(filler)
			if err := s.Put(fmt.Sprintf("%s/page%02d", label, i), pagestore.Meta{Status: 200}, []byte(fmt.Sprintf("%x", filler))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = pagestore.Open(dir, pagestore.Options{MaxSegmentBytes: 4096}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	keys := func(opts Options) ([]string, error) {
		return Extract(s, func(d Doc) (string, bool) { return d.Key, true }, opts)
	}
	want, err := keys(Options{KeyPrefix: "t3/"})
	if err != nil || len(want) != 30 {
		t.Fatalf("prefixed pass on the intact store: %d keys, err %v", len(want), err)
	}
	first := s.SegmentIDs()[0]
	recs, err := s.ReadLive(first)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if !strings.HasPrefix(r.Key, "t1/") {
			t.Fatalf("fixture: first segment holds %q", r.Key)
		}
	}
	if err := os.Remove(filepath.Join(dir, fmt.Sprintf("seg-%06d.dat", first))); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := keys(Options{Workers: workers, KeyPrefix: "t3/"})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: prefixed pass without the t1 segment: %d keys, err %v", workers, len(got), err)
		}
		if _, err := keys(Options{Workers: workers}); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("workers=%d: unrestricted pass without the t1 segment: err = %v", workers, err)
		}
		if _, err := keys(Options{Workers: workers, KeyPrefix: "t1/"}); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("workers=%d: t1 pass without the t1 segment: err = %v", workers, err)
		}
	}
}
