// Package corpus is the deterministic whole-archive read path over the
// pagestore — the substrate every whole-corpus analysis (per-label
// snapshot extraction, the serving index build, per-label stats) shares
// instead of hand-rolling its own walk — and the one place that knows
// the crawl-archive key format (see SplitKey).
//
// The execution model is map over segments, ordered reduce:
//
//   - ExtractStored projects one pagestore segment per call on the
//     internal/par fan-out. A segment's live records arrive in record
//     (offset) order, checksum verified, bodies still compressed —
//     every live record in exactly one call. Extract is the same walk
//     with each body decompressed before the projection sees it.
//   - Results are folded in ascending segment-id order, regardless of
//     which worker finished first. Projections over disjoint segments
//     share nothing, so for any pure projection the output is bitwise
//     identical at every worker count.
//   - The final output is sorted by key, which makes it independent of
//     the physical segment layout too: the same records written at any
//     segment size give the same result.
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
	return ExtractStored(st, func(r pagestore.StoredRecord) (R, bool, error) {
		body, err := r.Inflate()
		if err != nil {
			var zero R
			return zero, false, err
		}
		v, ok := proj(Doc{Key: r.Key, Meta: r.Meta, Body: body})
		return v, ok, nil
	}, opts)
}

// ExtractStored is the walk under Extract: proj receives each record
// checked but still compressed, so a projection that does not need a
// body never inflates it (r.Inflate), and an error from proj aborts the
// pass as a read error does. r.Flate is a view into the segment as read.
func ExtractStored[R any](st *pagestore.Store, proj func(pagestore.StoredRecord) (R, bool, error), opts Options) ([]R, error) {
	// keyed carries a projection with the key that orders it.
	type keyed struct {
		key string
		val R
	}
	ids := st.SegmentIDs()
	parts := make([][]keyed, len(ids))
	err := par.DoErr(len(ids), opts.Workers, func(i int) error {
		recs, err := st.ReadStoredPrefix(ids[i], opts.KeyPrefix)
		if err != nil {
			return err
		}
		for _, r := range recs {
			v, ok, err := proj(r)
			if err != nil {
				return err
			}
			if ok {
				parts[i] = append(parts[i], keyed{key: r.Key, val: v})
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
