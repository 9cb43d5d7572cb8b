package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pagequality/internal/crawler"
	"pagequality/internal/pagestore"
	"pagequality/internal/snapshot"
	"pagequality/internal/webcorpus"
	"pagequality/internal/webserver"
)

// crawlIntoArchive crawls a small served corpus, archiving bodies under
// the given label, and returns the archive dir plus the live crawl graph
// encoding for comparison.
func crawlIntoArchive(t *testing.T, label string) (archiveDir string, liveEncoding []byte) {
	t.Helper()
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = 6
	cfg.InitialPagesPerSite = 5
	cfg.Users = 2000
	cfg.VisitRate = 2000
	cfg.LinkProb = 0.2
	cfg.BurnInWeeks = 10
	cfg.Seed = 21
	sim, err := webcorpus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := webserver.New(sim.Graph().Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	archiveDir = t.TempDir()
	arch, err := pagestore.Open(archiveDir, pagestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := crawler.FetchSeeds(context.Background(), ts.Client(), ts.URL+"/seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	res, err := crawler.Crawl(crawler.Config{
		Seeds:  seeds,
		Client: ts.Client(),
		OnFetch: func(u string, body []byte) {
			if err := arch.Put(label+"/"+u, pagestore.Meta{FetchedAt: 2, Status: 200}, body); err != nil {
				t.Error(err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	return archiveDir, res.Graph.AppendBinary(nil)
}

func TestExtractRebuildsCrawl(t *testing.T) {
	archiveDir, live := crawlIntoArchive(t, "t1")
	store := filepath.Join(t.TempDir(), "web.pqs")
	var buf bytes.Buffer
	if err := run([]string{"-archive", archiveDir, "-label", "t1", "-store", store}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "appended snapshot t1 (week 2.0)") {
		t.Fatalf("fetch-time week not used:\n%s", buf.String())
	}
	snaps, err := snapshot.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("%d snapshots", len(snaps))
	}
	if !bytes.Equal(snaps[0].Graph.AppendBinary(nil), live) {
		t.Fatal("extracted graph differs from the live crawl")
	}
}

func TestExtractStats(t *testing.T) {
	archiveDir, _ := crawlIntoArchive(t, "t1")
	var buf bytes.Buffer
	if err := run([]string{"-archive", archiveDir, "-stats"}, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("stats csv:\n%s", buf.String())
	}
	if lines[0] != "label,docs,bytes,mean_bytes,first_week,last_week" {
		t.Fatalf("header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "t1,") {
		t.Fatalf("row: %s", lines[1])
	}
}

// TestExtractRefusesEqualWeek: snapshot.Align needs strictly increasing
// times, so extracting at the last stored week must be refused and leave
// the store file untouched.
func TestExtractRefusesEqualWeek(t *testing.T) {
	archiveDir, _ := crawlIntoArchive(t, "t1")
	store := filepath.Join(t.TempDir(), "web.pqs")
	var buf bytes.Buffer
	if err := run([]string{"-archive", archiveDir, "-label", "t1", "-store", store}, &buf); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	// Once at the archived fetch time again, once at the same week by flag.
	for _, args := range [][]string{nil, {"-week", "2"}} {
		err := run(append([]string{"-archive", archiveDir, "-label", "t1", "-store", store}, args...), &buf)
		if err == nil || !strings.Contains(err.Error(), "does not follow") {
			t.Fatalf("%v: equal week: err = %v", args, err)
		}
		after, err := os.ReadFile(store)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%v: refused extract modified the store", args)
		}
	}
}

// TestExtractRefusesStoredLabel: extracting a label the store already
// holds is refused even at a later week, and the store is left as it was.
func TestExtractRefusesStoredLabel(t *testing.T) {
	archiveDir, _ := crawlIntoArchive(t, "t1")
	store := filepath.Join(t.TempDir(), "web.pqs")
	var buf bytes.Buffer
	if err := run([]string{"-archive", archiveDir, "-label", "t1", "-store", store}, &buf); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-archive", archiveDir, "-label", "t1", "-store", store, "-week", "8"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "already holds snapshot t1") {
		t.Fatalf("stored label: err = %v", err)
	}
	if after, err := os.ReadFile(store); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("the refused extract changed the store (%v)", err)
	}
}

func TestExtractErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{}, &buf); err == nil {
		t.Fatal("missing flags accepted")
	}
	archiveDir, _ := crawlIntoArchive(t, "t1")
	store := filepath.Join(t.TempDir(), "web.pqs")
	if err := run([]string{"-archive", archiveDir, "-label", "nope", "-store", store}, &buf); err == nil {
		t.Fatal("unknown label accepted")
	}
	// Time-order check against an existing store.
	if err := run([]string{"-archive", archiveDir, "-label", "t1", "-store", store, "-week", "8"}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-archive", archiveDir, "-label", "t1", "-store", store, "-week", "4"}, &buf); err == nil {
		t.Fatal("time-travelling extract accepted")
	}
}
