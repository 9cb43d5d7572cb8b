package corpus

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"pagequality/internal/crawler"
	"pagequality/internal/pagestore"
	"pagequality/internal/snapshot"
)

// buildTestArchive archives three crawls of a small evolving site graph
// under labels t1..t3 (weeks 1..3), across several pagestore segments,
// and returns the keys it wrote.
func buildTestArchive(t *testing.T) (*pagestore.Store, map[string]bool) {
	t.Helper()
	st, err := pagestore.Open(t.TempDir(), pagestore.Options{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	written := map[string]bool{}
	const n = 12
	url := func(i int) string { return fmt.Sprintf("http://site.test/p%02d", i) }
	for week := 1; week <= 3; week++ {
		label := fmt.Sprintf("t%d", week)
		for i := 0; i < n; i++ {
			// A ring plus week-dependent chords, so rank evolves.
			body := fmt.Sprintf(`<html><body><a href="%s">next</a>`, url((i+1)%n))
			if (i+week)%3 == 0 {
				body += fmt.Sprintf(`<a href="%s">chord</a>`, url((i+week*2)%n))
			}
			body += `</body></html>`
			key := ArchiveKey(label, url(i))
			if err := st.Put(key, pagestore.Meta{FetchedAt: float64(week), Status: 200}, []byte(body)); err != nil {
				t.Fatal(err)
			}
			written[key] = true
		}
	}
	return st, written
}

// keyWalkSnapshots is the route the archive reader replaced: a Get per
// key in key order, label by label (what cmd/extract did), the first
// document's fetch time as the snapshot time. The keys are the ones the
// fixture wrote, so the oracle does not read the store's index.
func keyWalkSnapshots(t *testing.T, st *pagestore.Store, written map[string]bool, labels []string) []snapshot.Snapshot {
	t.Helper()
	var snaps []snapshot.Snapshot
	for _, label := range labels {
		prefix := label + "/"
		keys := sortedKeys(written, prefix)
		if len(keys) == 0 {
			t.Fatalf("no keys under %q", prefix)
		}
		docs := make([]crawler.Document, 0, len(keys))
		week := -1.0
		for _, k := range keys {
			meta, body, err := st.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if week < 0 {
				week = meta.FetchedAt
			}
			docs = append(docs, crawler.Document{FetchURL: k[len(prefix):], Body: body})
		}
		res, err := crawler.Assemble(docs)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snapshot.Snapshot{Label: label, Time: week, Graph: res.Graph})
	}
	return snaps
}

func TestSplitKey(t *testing.T) {
	for _, tc := range []struct {
		key, label, url string
		ok              bool
	}{
		{"t1/http://a.test/x", "t1", "http://a.test/x", true},
		{"t1/", "t1", "", true},
		{"nolabel", "", "", false},
		{"/x", "", "", false},
		{"", "", "", false},
	} {
		label, url, ok := SplitKey(tc.key)
		if label != tc.label || url != tc.url || ok != tc.ok {
			t.Errorf("SplitKey(%q) = (%q, %q, %v), want (%q, %q, %v)", tc.key, label, url, ok, tc.label, tc.url, tc.ok)
		}
	}
}

// FuzzSplitKey: a key splits exactly when it holds a '/' and does not
// start with one; the label is then non-empty and '/'-free, and label,
// '/' and url rebuild the key. A key that does not split yields empty
// parts.
func FuzzSplitKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, key string) {
		label, url, ok := SplitKey(key)
		if want := strings.Contains(key, "/") && key[0] != '/'; ok != want {
			t.Fatalf("SplitKey(%q) ok = %v, want %v", key, ok, want)
		}
		if !ok {
			if label != "" || url != "" {
				t.Fatalf("SplitKey(%q) = (%q, %q) without ok", key, label, url)
			}
			return
		}
		if label == "" || strings.Contains(label, "/") || ArchiveKey(label, url) != key {
			t.Fatalf("SplitKey(%q) = (%q, %q)", key, label, url)
		}
	})
}

// TestCheckLabel: a label CheckLabel accepts is the one SplitKey gives
// back from every key ArchiveKey builds with it, and a label it refuses
// is named in the error.
func TestCheckLabel(t *testing.T) {
	for _, tc := range []struct {
		label string
		ok    bool
	}{
		{"t1", true},
		{"week 4", true},
		{strings.Repeat("x", pagestore.MaxLabelLen), true},
		{"", false},
		{"a/b", false},
		{"t1/", false},
		{"/t1", false},
		{strings.Repeat("x", pagestore.MaxLabelLen+1), false},
	} {
		err := CheckLabel(tc.label)
		if (err == nil) != tc.ok {
			t.Errorf("CheckLabel(%q) = %v, want ok %v", tc.label, err, tc.ok)
			continue
		}
		if !tc.ok {
			if !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.label)) {
				t.Errorf("CheckLabel(%q) = %v: the error does not name the label", tc.label, err)
			}
			continue
		}
		for _, url := range []string{"http://a.test/x", "", "/", "http://a.test/b/c"} {
			if label, got, ok := SplitKey(ArchiveKey(tc.label, url)); !ok || label != tc.label || got != url {
				t.Errorf("SplitKey(ArchiveKey(%q, %q)) = (%q, %q, %v)", tc.label, url, label, got, ok)
			}
		}
	}
}

// TestSnapshotsFromArchiveMatchExtract: every label's snapshot, read
// under its key prefix, equals the key walk's. An unknown label is
// refused, and so are the empty label and one holding a '/', which no
// archive key splits into.
func TestSnapshotsFromArchiveMatchExtract(t *testing.T) {
	st, written := buildTestArchive(t)
	labels := []string{"t1", "t2", "t3"}
	want := keyWalkSnapshots(t, st, written, labels)
	for k, label := range labels {
		snap, err := SnapshotFromArchive(st, label)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Label != want[k].Label || snap.Time != want[k].Time { //pqlint:allow floateq both routes copy the same stored fetch time
			t.Fatalf("snapshot %q = (%q, %g), want (%q, %g)", label, snap.Label, snap.Time, want[k].Label, want[k].Time)
		}
		if !bytes.Equal(snap.Graph.AppendBinary(nil), want[k].Graph.AppendBinary(nil)) {
			t.Fatalf("snapshot %q graph differs from the key walk's", label)
		}
	}
	if err := st.Put("x/y/http://site.test/p00", pagestore.Meta{FetchedAt: 4, Status: 200}, []byte("<html></html>")); err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"nope", "", "x/y"} {
		if _, err := SnapshotFromArchive(st, label); err == nil {
			t.Fatalf("label %q accepted", label)
		}
	}
}
