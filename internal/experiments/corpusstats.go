package experiments

import (
	"encoding/csv"
	"io"
	"sort"
	"strconv"

	"pagequality/internal/corpus"
	"pagequality/internal/pagestore"
)

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
// are not archive keys (corpus.SplitKey) are skipped; results are
// label-sorted, so the output is independent of worker count and
// segment layout.
func ArchiveStats(st *pagestore.Store, opts corpus.Options) ([]LabelStat, error) {
	type docStat struct {
		label string
		bytes int64
		week  float64
	}
	stats, err := corpus.Extract(st, func(d corpus.Doc) (docStat, bool) {
		label, _, ok := corpus.SplitKey(d.Key)
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
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"label", "docs", "bytes", "mean_bytes", "first_week", "last_week"}); err != nil {
		return err
	}
	for _, ls := range stats {
		row := []string{
			ls.Label,
			strconv.Itoa(ls.Docs),
			strconv.FormatInt(ls.Bytes, 10),
			formatF(ls.MeanBytes),
			formatF(ls.FirstWeek),
			formatF(ls.LastWeek),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
