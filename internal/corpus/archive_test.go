package corpus

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"pagequality/internal/crawler"
	"pagequality/internal/pagestore"
	"pagequality/internal/snapshot"
)

// buildTestArchive archives three crawls of a small evolving site graph
// under labels t1..t3 (weeks 1..3), across several pagestore segments.
func buildTestArchive(t *testing.T) *pagestore.Store {
	t.Helper()
	st, err := pagestore.Open(t.TempDir(), pagestore.Options{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
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
			key := label + "/" + url(i)
			if err := st.Put(key, pagestore.Meta{FetchedAt: float64(week), Status: 200}, []byte(body)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

// keyWalkSnapshots is the route the archive readers replaced: a
// KeysWithPrefix+Get walk per label (what cmd/extract did), the first
// document's fetch time as the snapshot time.
func keyWalkSnapshots(t *testing.T, st *pagestore.Store, labels []string) []snapshot.Snapshot {
	t.Helper()
	var snaps []snapshot.Snapshot
	for _, label := range labels {
		prefix := label + "/"
		keys := st.KeysWithPrefix(prefix)
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

func TestArchiveLabels(t *testing.T) {
	st := buildTestArchive(t)
	labels, err := ArchiveLabels(st, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(labels, []string{"t1", "t2", "t3"}) {
		t.Fatalf("labels = %v", labels)
	}
}

func TestSnapshotsFromArchiveMatchExtract(t *testing.T) {
	st := buildTestArchive(t)
	// A subset, out of time order: the result follows the given order and
	// holds nothing of the unwanted label.
	labels := []string{"t3", "t1"}
	want := keyWalkSnapshots(t, st, labels)
	for _, workers := range []int{1, 2, 0} {
		snaps, err := SnapshotsFromArchive(st, labels, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) != len(want) {
			t.Fatalf("workers=%d: %d snapshots, want %d", workers, len(snaps), len(want))
		}
		for k := range snaps {
			if snaps[k].Label != want[k].Label || snaps[k].Time != want[k].Time { //pqlint:allow floateq both routes copy the same stored fetch time
				t.Fatalf("workers=%d: snapshot %d = (%q, %g), want (%q, %g)",
					workers, k, snaps[k].Label, snaps[k].Time, want[k].Label, want[k].Time)
			}
			if !bytes.Equal(snaps[k].Graph.AppendBinary(nil), want[k].Graph.AppendBinary(nil)) {
				t.Fatalf("workers=%d: snapshot %q graph differs from the key walk's", workers, snaps[k].Label)
			}
		}
	}
	if _, err := SnapshotsFromArchive(st, []string{"t1", "nope"}, Options{}); err == nil {
		t.Fatal("unknown label accepted")
	}
}
