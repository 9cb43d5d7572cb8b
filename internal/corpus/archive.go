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
// document "<label>/<fetch-url>". The readers below feed cmd/extract
// straight from such an archive, one corpus pass each. They live here
// rather than beside the estimator so that package quality stays pure
// math over PageRank series (the simulators import it for live
// in-the-loop estimates) with no crawl-pipeline dependencies.

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

// ArchiveKey is the archive key of the document fetched from url in the
// crawl labelled label; SplitKey gives back a label CheckLabel accepts.
func ArchiveKey(label, url string) string { return label + "/" + url }

// CheckLabel refuses a crawl label that SplitKey would not give back
// (empty, or holding a '/') or that is longer than pagestore.MaxLabelLen.
func CheckLabel(label string) error {
	if label == "" || strings.Contains(label, "/") || len(label) > pagestore.MaxLabelLen {
		return fmt.Errorf("corpus: label %q cannot key an archive: it must be 1 to %d bytes, none a '/'", label, pagestore.MaxLabelLen)
	}
	return nil
}

// LabelDocuments reads the documents archived under one crawl label, in
// key order, and the first one's fetch time. The pass reads under the
// label's key prefix, so no other label's body is inflated. A label the
// archive does not hold gives no documents and no error.
func LabelDocuments(st *pagestore.Store, label string) ([]crawler.Document, float64, error) {
	recs, err := Extract(st, func(d Doc) (Doc, bool) {
		l, _, ok := SplitKey(d.Key)
		return d, ok && l == label
	}, Options{KeyPrefix: ArchiveKey(label, "")})
	if err != nil || len(recs) == 0 {
		return nil, 0, err
	}
	docs := make([]crawler.Document, len(recs))
	for i, r := range recs {
		docs[i] = crawler.Document{FetchURL: r.Key[len(label)+1:], Body: r.Body}
	}
	return docs, recs[0].Meta.FetchedAt, nil
}

// SnapshotFromArchive re-extracts the link-graph snapshot of one crawl
// label from the archived bodies (LabelDocuments), with the first
// document's fetch time as the snapshot time.
func SnapshotFromArchive(st *pagestore.Store, label string) (snapshot.Snapshot, error) {
	docs, week, err := LabelDocuments(st, label)
	if err != nil {
		return snapshot.Snapshot{}, err
	}
	if len(docs) == 0 {
		return snapshot.Snapshot{}, fmt.Errorf("corpus: no documents with label %q in archive", label)
	}
	res, err := crawler.Assemble(docs)
	if err != nil {
		return snapshot.Snapshot{}, fmt.Errorf("corpus: label %q: %w", label, err)
	}
	return snapshot.Snapshot{Label: label, Time: week, Graph: res.Graph}, nil
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
