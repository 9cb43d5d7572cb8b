package search

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"pagequality/internal/par"
)

// ErrBadShard reports an unusable sharding configuration.
var ErrBadShard = errors.New("search: bad shard config")

// ShardedIndex is the horizontally partitioned view of an Index: the
// frozen CSR posting layout split into K doc-shards, each searched in
// parallel by a worker pool and merged through the bounded top-k heap.
//
// Documents are assigned round-robin by doc id — global doc g lives in
// shard g%K at local id g/K — so the partition is a pure function of
// (NumDocs, K) with no data movement beyond slicing the posting lists.
// Every shard shares the corpus-global statistics (term ids, idf tables)
// and carries private copies of its documents' norms, so each shard
// kernel computes exactly the floats the unsharded kernel would for the
// same documents: scatter-gather results are bitwise identical to
// Index.Search at every shard count and worker count, the contract
// TestShardedParity pins.
//
// A ShardedIndex is an immutable snapshot of the index at Shard time; it
// is safe for unlimited concurrent SearchContext calls. Adding documents
// to the parent Index afterwards does not change it — re-shard to pick
// the additions up.
type ShardedIndex struct {
	f       *frozen   // corpus-global layout: doc count, shared stats
	parts   []*frozen // per-shard posting subsets with local doc ids
	workers int
}

// Shard partitions the index into the given number of doc-shards,
// freezing it first if needed. shards must be >= 1 and is clamped to the
// document count (a shard with no documents could never affect a
// result); workers sizes the search-time fan-out pool, 0 meaning
// GOMAXPROCS, negative rejected.
func (ix *Index) Shard(shards, workers int) (*ShardedIndex, error) {
	if shards < 1 {
		return nil, fmt.Errorf("%w: shards=%d", ErrBadShard, shards)
	}
	if workers < 0 {
		return nil, fmt.Errorf("%w: workers=%d", ErrBadShard, workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n := ix.NumDocs(); shards > n {
		shards = n
		if shards < 1 {
			shards = 1
		}
	}
	f := ix.frozen()
	return &ShardedIndex{f: f, parts: partitionFrozen(f, shards), workers: workers}, nil
}

// NumShards returns the number of doc-shards after clamping.
func (si *ShardedIndex) NumShards() int { return len(si.parts) }

// partitionFrozen splits the global posting layout into k per-shard
// layouts. Shard s reuses the global term-id map and idf tables (query
// statistics are corpus-wide by definition) and receives verbatim copies
// of its documents' precomputed norms, re-indexed to local ids. Postings
// are copied term by term in global term order, so within each shard
// bucket they stay in ascending local-doc order exactly as freeze laid
// them out. One shard is the global layout itself: local ids equal
// global ids, so f is shared and nothing is copied.
func partitionFrozen(f *frozen, k int) []*frozen {
	if k == 1 {
		return []*frozen{f}
	}
	nTerms := len(f.start) - 1
	sizes := make([]int, k)    // documents per shard
	postings := make([]int, k) // postings per shard
	for d := 0; d < f.numDocs; d++ {
		sizes[d%k]++
	}
	for _, d := range f.docs {
		postings[int(d)%k]++
	}
	parts := make([]*frozen, k)
	for s := 0; s < k; s++ {
		n := sizes[s]
		p := &frozen{
			termID:  f.termID,
			start:   make([]int32, nTerms+1),
			docs:    make([]int32, 0, postings[s]),
			tfs:     make([]float32, 0, postings[s]),
			idf:     f.idf,
			norm:    make([]float64, n),
			numDocs: n,
		}
		p.initPool()
		parts[s] = p
	}
	for d := 0; d < f.numDocs; d++ {
		parts[d%k].norm[d/k] = f.norm[d]
	}
	for t := 0; t < nTerms; t++ {
		for i := f.start[t]; i < f.start[t+1]; i++ {
			d := int(f.docs[i])
			p := parts[d%k]
			p.docs = append(p.docs, int32(d/k))
			p.tfs = append(p.tfs, f.tfs[i])
		}
		for s := 0; s < k; s++ {
			parts[s].start[t+1] = int32(len(parts[s].docs))
		}
	}
	return parts
}

// shardResult is one shard's scatter-phase output: the leased scratch
// holding its relevance scores, the matched local doc set, and the
// shard-local maxima feeding the global normalisation.
type shardResult struct {
	sc      *scratch
	docs    []int32
	maxRel  float64
	maxAuth float64
}

// SearchContext runs the scatter-gather query: every shard scores its
// posting subset in parallel (scatter), the shard maxima combine into
// the corpus-global normalisers — max is an exact float reduction, so
// the combined values are bit-identical to a corpus-wide pass — then
// each shard blends and selects its local top k (gather), and the K
// partial lists merge through one bounded heap. Because the ranking
// comparator is a total order, the merged list is exactly the unsharded
// result.
//
// Options.Order is validated and otherwise unused: every shard offers
// all of its matches.
//
// ctx cancellation (a client disconnect, a server shutdown) stops the
// fan-out between shards: workers finish the shard kernel they are in,
// skip the rest, and SearchContext returns ctx.Err().
func (si *ShardedIndex) SearchContext(ctx context.Context, query string, opts Options) ([]Hit, error) {
	terms, err := opts.prepare(query, si.f.numDocs)
	if err != nil {
		return nil, err
	}
	k := len(si.parts)
	results := make([]shardResult, k)
	defer func() {
		for s := range results {
			if results[s].sc != nil {
				si.parts[s].release(results[s].sc)
			}
		}
	}()

	// Scatter: run the scoring kernel on each shard's posting subset and
	// reduce the shard-local maxima.
	err = si.fanOut(ctx, func(s int) {
		p := si.parts[s]
		sc := p.getScratch()
		results[s].sc = sc
		docs, maxRel := p.vectorKernel(terms, sc)
		results[s].docs, results[s].maxRel = docs, maxRel
		if opts.Authority != nil {
			for _, d := range docs {
				if a := opts.Authority[int(d)*k+s]; a > results[s].maxAuth {
					results[s].maxAuth = a
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}

	var maxRel, maxAuth float64
	matched := 0
	for s := range results {
		matched += len(results[s].docs)
		if results[s].maxRel > maxRel {
			maxRel = results[s].maxRel
		}
		if results[s].maxAuth > maxAuth {
			maxAuth = results[s].maxAuth
		}
	}
	if matched == 0 {
		return nil, nil
	}

	// Gather: blend each shard's matches against the global maxima and
	// keep its local top k — a shard can contribute at most k hits to the
	// final list, so merging the partial lists loses nothing.
	tops := make([][]Hit, k)
	err = si.fanOut(ctx, func(s int) {
		sc := results[s].sc
		top := newTopK(opts.TopK, len(results[s].docs))
		for _, d := range results[s].docs {
			top.offer(blendHit(int(d)*k+s, sc.score[d], maxRel, maxAuth, opts))
		}
		tops[s] = top.ranked()
	})
	if err != nil {
		return nil, err
	}

	merged := newTopK(opts.TopK, matched)
	for _, hits := range tops {
		for _, h := range hits {
			merged.offer(h)
		}
	}
	return merged.ranked(), nil
}

// fanOut applies fn to every shard index on the internal/par fan-out
// with at most si.workers goroutines; with an effective pool of one it
// runs inline, so single-shard serving pays no scheduling cost. fn calls
// for distinct shards never overlap on shared state (each writes only its
// own slot), and a ctx error stops workers between shards.
func (si *ShardedIndex) fanOut(ctx context.Context, fn func(s int)) error {
	return par.DoContext(ctx, len(si.parts), si.workers, func(s int) error {
		fn(s)
		return nil
	})
}
