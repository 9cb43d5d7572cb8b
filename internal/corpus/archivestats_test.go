package corpus

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pagequality/internal/pagestore"
)

func buildArchive(t *testing.T) *pagestore.Store {
	t.Helper()
	st, err := pagestore.Open(t.TempDir(), pagestore.Options{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for i := 0; i < 30; i++ {
		label := "t1"
		if i%3 == 0 {
			label = "t2"
		}
		body := strings.Repeat("x", 50+i)
		key := fmt.Sprintf("%s/site-%02d/page", label, i)
		if err := st.Put(key, pagestore.Meta{FetchedAt: float64(i % 7), Status: 200}, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestArchiveStats(t *testing.T) {
	st := buildArchive(t)
	stats, err := ArchiveStats(st, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 || stats[0].Label != "t1" || stats[1].Label != "t2" {
		t.Fatalf("labels: %+v", stats)
	}
	if stats[0].Docs+stats[1].Docs != 30 {
		t.Fatalf("doc counts: %+v", stats)
	}
	for _, ls := range stats {
		if math.Abs(ls.MeanBytes*float64(ls.Docs)-float64(ls.Bytes)) > 1e-9 {
			t.Fatalf("mean inconsistent: %+v", ls)
		}
		if ls.FirstWeek > ls.LastWeek {
			t.Fatalf("week span inverted: %+v", ls)
		}
	}
	// Worker-count invariance.
	again, err := ArchiveStats(st, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats, again) {
		t.Fatal("stats differ across worker counts")
	}
}

// TestArchiveStatsSkipsStrayKeys: a record whose key is not
// "<label>/<url>" is no crawl's document. The stats pass and the label
// reader must agree on that, or `extract -stats` lists labels
// `quality -archive` cannot estimate from.
func TestArchiveStatsSkipsStrayKeys(t *testing.T) {
	st := buildArchive(t)
	for _, key := range []string{"nolabel", "/x"} {
		if err := st.Put(key, pagestore.Meta{FetchedAt: 9, Status: 200}, []byte("stray")); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := ArchiveStats(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var fromStats []string
	for _, ls := range stats {
		fromStats = append(fromStats, ls.Label)
	}
	fromLabels, err := ArchiveLabels(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(fromLabels)
	if want := []string{"t1", "t2"}; !reflect.DeepEqual(fromStats, want) || !reflect.DeepEqual(fromLabels, want) {
		t.Fatalf("ArchiveStats labels %q, ArchiveLabels %q, want both %q", fromStats, fromLabels, want)
	}
}

func TestWriteArchiveStatsCSV(t *testing.T) {
	st := buildArchive(t)
	stats, err := ArchiveStats(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteArchiveStatsCSV(&sb, stats); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv:\n%s", sb.String())
	}
	if lines[0] != "label,docs,bytes,mean_bytes,first_week,last_week" {
		t.Fatalf("header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "t1,") || !strings.HasPrefix(lines[2], "t2,") {
		t.Fatalf("rows:\n%s", sb.String())
	}
}
