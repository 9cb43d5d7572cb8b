package search

import (
	"math"
	"sync"
)

// frozen is the read-only, CSR-style view of the index that queries are
// served from: all postings live in one backing doc-id slice and one
// term-frequency slice, bucketed per term through start offsets, with the
// per-term idf values and the per-document tf-idf L2 norms precomputed at
// freeze time. The layout mirrors graph.CSR and the PageRank kernels of
// PR 1: pointer-free flat slices the scoring loops stream through.
//
// A frozen view is immutable once built; any number of Search calls may
// share it concurrently. Mutating the index (Add) invalidates the view
// and the next Search rebuilds it.
type frozen struct {
	termID map[string]int32
	start  []int32   // postings of term t occupy docs[start[t]:start[t+1]]
	docs   []int32   // doc ids, ascending within each term bucket
	tfs    []float32 // term frequency per posting (exact: tf is a small integer)

	idf  []float64 // smoothed tf-idf inverse document frequency, per term
	norm []float64 // tf-idf L2 norm, per document

	numDocs int
	pool    sync.Pool // *scratch
}

// scratch holds one query's dense accumulators, recycled through the
// frozen view's pool so concurrent searches never share state and steady
// traffic allocates nothing per query. Only the entries listed in touched
// are dirty; release zeroes exactly those.
type scratch struct {
	score   []float64 // per-doc relevance accumulator
	seen    []bool    // per-doc touched marker
	touched []int32   // docs hit by the current query, in first-touch order
}

// frozen returns the current view, building it on first use after a
// mutation. The double-checked build means concurrent Search calls on an
// unchanging index share one view without locking on the hot path;
// mutating and searching concurrently is not supported (and never was).
func (ix *Index) frozen() *frozen {
	if f := ix.fz.Load(); f != nil {
		return f
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if f := ix.fz.Load(); f != nil {
		return f
	}
	f := ix.freeze()
	ix.fz.Store(f)
	return f
}

// freeze flattens the postings map into the CSR layout. Terms are laid
// out in sorted order and the norms accumulated term by term in that
// order — the exact summation order the incremental map-based scorer
// used — so every precomputed float is bitwise identical to what the
// historical ensureNorms produced. Postings within a term are already in
// ascending doc order because Add assigns ids sequentially and touches
// each term at most once per document.
func (ix *Index) freeze() *frozen {
	vocab := ix.sortedVocab()
	n := ix.numDocs
	total := 0
	for _, t := range vocab {
		total += len(ix.postings[t])
	}
	f := &frozen{
		termID:  make(map[string]int32, len(vocab)),
		start:   make([]int32, len(vocab)+1),
		docs:    make([]int32, 0, total),
		tfs:     make([]float32, 0, total),
		idf:     make([]float64, len(vocab)),
		norm:    make([]float64, n),
		numDocs: n,
	}
	for i, t := range vocab {
		f.termID[t] = int32(i)
		plist := ix.postings[t]
		df := float64(len(plist))
		w := math.Log(1 + float64(n)/df)
		f.idf[i] = w
		for _, p := range plist {
			f.docs = append(f.docs, p.doc)
			f.tfs = append(f.tfs, float32(p.tf))
			x := float64(p.tf) * w
			f.norm[p.doc] += x * x
		}
		f.start[i+1] = int32(len(f.docs))
	}
	for i := range f.norm {
		f.norm[i] = math.Sqrt(f.norm[i])
	}
	f.pool.New = func() any {
		return &scratch{score: make([]float64, n), seen: make([]bool, n)}
	}
	return f
}

// getScratch leases a scratch sized for this view's document count.
func (f *frozen) getScratch() *scratch {
	return f.pool.Get().(*scratch)
}

// release zeroes only the entries the query touched and returns the
// scratch to the pool, keeping the per-query reset O(matched docs)
// instead of O(corpus).
func (f *frozen) release(sc *scratch) {
	for _, d := range sc.touched {
		sc.score[d] = 0
		sc.seen[d] = false
	}
	sc.touched = sc.touched[:0]
	f.pool.Put(sc)
}

// touch marks doc d matched, recording it on first contact.
func (sc *scratch) touch(d int32) {
	if !sc.seen[d] {
		sc.seen[d] = true
		sc.touched = append(sc.touched, d)
	}
}

// vectorKernel computes cosine(query, doc) over tf-idf weights into the
// scratch and returns the matched doc set. Query terms are visited in
// sorted order so each float accumulation happens in exactly the order
// the historical map-based scorer used: the resulting scores are bitwise
// identical to it (pinned by TestSearchMatchesReference).
func (f *frozen) vectorKernel(terms []string, sc *scratch) []int32 {
	qCounts := queryCounts(terms)
	qNorm := 0.0
	for _, t := range sortedKeys(qCounts) {
		id, ok := f.termID[t]
		if !ok {
			continue // absent term: idf 0, contributes nothing
		}
		w := f.idf[id]
		qw := float64(qCounts[t]) * w
		qNorm += qw * qw
		for i := f.start[id]; i < f.start[id+1]; i++ {
			d := f.docs[i]
			sc.touch(d)
			sc.score[d] += qw * float64(f.tfs[i]) * w
		}
	}
	if qNorm == 0 {
		// No query term appears in the corpus: empty result. (Any
		// present term has df >= 1, hence idf > 0 and qNorm > 0.)
		return nil
	}
	qn := math.Sqrt(qNorm)
	for _, d := range sc.touched {
		if f.norm[d] > 0 {
			sc.score[d] /= qn * f.norm[d]
		}
	}
	return sc.touched
}
