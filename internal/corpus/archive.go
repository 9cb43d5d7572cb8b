package corpus

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"pagequality/internal/crawler"
	"pagequality/internal/pagestore"
	"pagequality/internal/snapshot"
)

// A crawl archive (a pagestore written by `crawl -archive`) keys every
// document "<label>/<fetch-url>". The readers below feed the estimator
// and the extract CLI straight from such an archive, one corpus pass
// each. They live here rather than beside the estimator so that package
// quality stays pure math over PageRank series (the simulators import it
// for live in-the-loop estimates) with no crawl-pipeline dependencies.

// SplitKey splits an archive key into its crawl label and the URL the
// document was fetched from. ok is false for a key that is not an
// archive key — no '/' or an empty label — which every archive reader
// skips.
func SplitKey(key string) (label, url string, ok bool) {
	i := strings.IndexByte(key, '/')
	if i <= 0 {
		return "", "", false
	}
	return key[:i], key[i+1:], true
}

// ArchiveLabels returns the crawl labels present in the archive, ordered
// by snapshot time (ties broken by label) — the order Align expects. A
// label's snapshot time is the fetch time of its first document in key
// order, as in SnapshotsFromArchive.
func ArchiveLabels(st *pagestore.Store, opts Options) ([]string, error) {
	type stamp struct {
		label string
		week  float64
	}
	stamps, err := Extract(st, func(d Doc) (stamp, bool) {
		label, _, ok := SplitKey(d.Key)
		return stamp{label, d.Meta.FetchedAt}, ok
	}, opts)
	if err != nil {
		return nil, err
	}
	first := map[string]float64{}
	var labels []string
	for _, s := range stamps {
		if _, seen := first[s.label]; !seen {
			first[s.label] = s.week
			labels = append(labels, s.label)
		}
	}
	sort.Slice(labels, func(a, b int) bool {
		ta, tb := first[labels[a]], first[labels[b]]
		if ta < tb {
			return true
		}
		if tb < ta {
			return false
		}
		return labels[a] < labels[b]
	})
	return labels, nil
}

// SnapshotsFromArchive re-extracts one link-graph snapshot per label
// from the archived bodies, in the given label order. Only the wanted
// labels' bodies are retained. Each label's documents are assembled in
// key order with the first document's fetch time as the snapshot time.
func SnapshotsFromArchive(st *pagestore.Store, labels []string, opts Options) ([]snapshot.Snapshot, error) {
	want := make(map[string]bool, len(labels))
	for _, l := range labels {
		want[l] = true
	}
	type archived struct {
		label string
		week  float64
		doc   crawler.Document
	}
	recs, err := Extract(st, func(d Doc) (archived, bool) {
		label, url, ok := SplitKey(d.Key)
		if !ok || !want[label] {
			return archived{}, false
		}
		return archived{label, d.Meta.FetchedAt, crawler.Document{FetchURL: url, Body: d.Body}}, true
	}, opts)
	if err != nil {
		return nil, err
	}
	docs := map[string][]crawler.Document{}
	week := map[string]float64{}
	for _, r := range recs {
		if len(docs[r.label]) == 0 {
			week[r.label] = r.week
		}
		docs[r.label] = append(docs[r.label], r.doc)
	}
	snaps := make([]snapshot.Snapshot, 0, len(labels))
	for _, label := range labels {
		if len(docs[label]) == 0 {
			return nil, fmt.Errorf("corpus: no documents with label %q in archive", label)
		}
		res, err := crawler.Assemble(docs[label])
		if err != nil {
			return nil, fmt.Errorf("corpus: label %q: %w", label, err)
		}
		snaps = append(snaps, snapshot.Snapshot{Label: label, Time: week[label], Graph: res.Graph})
	}
	return snaps, nil
}

// LabelStat summarizes one crawl label's archived documents.
type LabelStat struct {
	Label     string
	Docs      int
	Bytes     int64   // decompressed body bytes
	MeanBytes float64 // Bytes / Docs
	FirstWeek float64 // earliest FetchedAt under the label
	LastWeek  float64 // latest FetchedAt under the label
}

// ArchiveStats computes per-label document counts, body volume and
// fetch-time spans over a crawl archive in one corpus pass. Keys that
// are not archive keys (SplitKey) are skipped; results are
// label-sorted, so the output is independent of worker count and
// segment layout.
func ArchiveStats(st *pagestore.Store, opts Options) ([]LabelStat, error) {
	type docStat struct {
		label string
		bytes int64
		week  float64
	}
	stats, err := Extract(st, func(d Doc) (docStat, bool) {
		label, _, ok := SplitKey(d.Key)
		return docStat{label: label, bytes: int64(len(d.Body)), week: d.Meta.FetchedAt}, ok
	}, opts)
	if err != nil {
		return nil, err
	}
	byLabel := map[string]*LabelStat{}
	for _, ds := range stats {
		ls := byLabel[ds.label]
		if ls == nil {
			ls = &LabelStat{Label: ds.label, FirstWeek: ds.week, LastWeek: ds.week}
			byLabel[ds.label] = ls
		}
		ls.Docs++
		ls.Bytes += ds.bytes
		if ds.week < ls.FirstWeek {
			ls.FirstWeek = ds.week
		}
		if ds.week > ls.LastWeek {
			ls.LastWeek = ds.week
		}
	}
	out := make([]LabelStat, 0, len(byLabel))
	for _, ls := range byLabel {
		ls.MeanBytes = float64(ls.Bytes) / float64(ls.Docs)
		out = append(out, *ls)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Label < out[b].Label })
	return out, nil
}

// WriteArchiveStatsCSV writes ArchiveStats results as CSV, one row per
// label.
func WriteArchiveStatsCSV(w io.Writer, stats []LabelStat) error {
	formatF := func(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }
	rows := [][]string{{"label", "docs", "bytes", "mean_bytes", "first_week", "last_week"}}
	for _, ls := range stats {
		rows = append(rows, []string{
			ls.Label,
			strconv.Itoa(ls.Docs),
			strconv.FormatInt(ls.Bytes, 10),
			formatF(ls.MeanBytes),
			formatF(ls.FirstWeek),
			formatF(ls.LastWeek),
		})
	}
	return csv.NewWriter(w).WriteAll(rows) // WriteAll flushes
}
