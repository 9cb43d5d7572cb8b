// Package corpus is the deterministic map-reduce query engine over the
// pagestore — the substrate every whole-corpus analysis (quality
// estimation, rank metrics, figure exports, ranking-policy sweeps)
// shares instead of hand-rolling its own walk.
//
// The execution model is map over segments, ordered reduce:
//
//   - Map runs one mapper call per pagestore segment on the internal/par
//     fan-out. A segment's live records arrive in record (offset)
//     order with bodies decompressed — every live record in exactly one
//     mapper call.
//   - Results are folded in ascending segment-id order, regardless of
//     which worker finished first. Mappers over disjoint segments share
//     nothing, so for any pure mapper the output is bitwise identical at
//     every worker count.
//
// The verbs on top (Extract, Query, Score, TopN) additionally sort their
// final output by key (or by a total-order score comparator), which
// makes them independent of the physical segment layout too: compaction
// may rehome every record without changing a verb's result.
package corpus

import (
	"pagequality/internal/pagestore"
	"pagequality/internal/par"
)

// Doc is one live document handed to mappers: key, metadata and the
// decompressed body.
type Doc = pagestore.Record

// Options tunes a corpus pass.
type Options struct {
	// Workers bounds the goroutines mapping segments. 0 uses GOMAXPROCS;
	// 1 runs sequentially. Results are bitwise identical either way.
	Workers int
}

// Mapper processes the live documents homed in one segment and returns
// that segment's partial result. It must not retain docs beyond the
// call and must be safe to run concurrently with other segments'
// mappers (mappers never share a segment).
type Mapper[T any] func(seg int, docs []Doc) (T, error)

// Map runs mapper over every segment holding live records and returns
// the per-segment results in ascending segment-id order — the ordered
// reduce input. An error aborts the pass; the earliest-segment error is
// reported regardless of which worker hit it first.
func Map[T any](st *pagestore.Store, mapper Mapper[T], opts Options) ([]T, error) {
	ids := st.SegmentIDs()
	results := make([]T, len(ids))
	err := par.DoErr(len(ids), opts.Workers, func(i int) error {
		docs, err := st.ReadLive(ids[i])
		if err != nil {
			return err
		}
		results[i], err = mapper(ids[i], docs)
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
