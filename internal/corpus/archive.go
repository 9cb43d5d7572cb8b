package corpus

import (
	"fmt"
	"sort"
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
