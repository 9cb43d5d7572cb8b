// Package corpus is the deterministic whole-archive read path over the
// pagestore — the substrate every whole-corpus analysis (archive-driven
// quality estimation, the serving index build, per-label stats) shares
// instead of hand-rolling its own walk — and the one place that knows
// the crawl-archive key format (see SplitKey).
//
// The execution model is map over segments, ordered reduce:
//
//   - Extract projects one pagestore segment per call on the
//     internal/par fan-out. A segment's live records arrive in record
//     (offset) order with bodies decompressed — every live record in
//     exactly one call.
//   - Results are folded in ascending segment-id order, regardless of
//     which worker finished first. Projections over disjoint segments
//     share nothing, so for any pure projection the output is bitwise
//     identical at every worker count.
//   - The final output is sorted by key, which makes it independent of
//     the physical segment layout too: compaction may rehome every
//     record without changing the result.
package corpus

import (
	"sort"

	"pagequality/internal/pagestore"
	"pagequality/internal/par"
)

// Doc is one live document handed to a projection: key, metadata and
// the decompressed body.
type Doc = pagestore.Record

// Options tunes a corpus pass.
type Options struct {
	// Workers bounds the goroutines projecting segments. 0 uses
	// GOMAXPROCS; 1 runs sequentially. Results are bitwise identical
	// either way.
	Workers int
	// KeyPrefix restricts the pass to the keys that start with it (an
	// archive label is "<label>/"). The pagestore applies it to its key
	// index before reading anything, so a segment with no such key is
	// never opened and a record outside the prefix never inflated; the
	// result equals the unrestricted pass with the same test in proj.
	KeyPrefix string
}

// Extract projects a field set out of every live document under
// opts.KeyPrefix (every live document when it is empty): proj returns
// the projection and whether to keep it. proj must be safe to run
// concurrently with other segments' projections; it may keep d.Body
// (every record's body is its own allocation). Results are in key
// order; live keys are unique, so the sort is a total order. A read
// error aborts the pass; the earliest segment's error is reported
// regardless of which worker hit it first.
func Extract[R any](st *pagestore.Store, proj func(Doc) (R, bool), opts Options) ([]R, error) {
	// keyed carries a projection with the key that orders it.
	type keyed struct {
		key string
		val R
	}
	ids := st.SegmentIDs()
	parts := make([][]keyed, len(ids))
	err := par.DoErr(len(ids), opts.Workers, func(i int) error {
		docs, err := st.ReadLivePrefix(ids[i], opts.KeyPrefix)
		if err != nil {
			return err
		}
		for _, d := range docs {
			if v, ok := proj(d); ok {
				parts[i] = append(parts[i], keyed{key: d.Key, val: v})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	all := make([]keyed, 0, n)
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].key < all[b].key })
	out := make([]R, len(all))
	for i, p := range all {
		out[i] = p.val
	}
	return out, nil
}
