package search

import (
	"math"
	"slices"
	"strings"
	"sync"
)

// frozen is the read-only, CSR-style view of the index that queries are
// served from: all postings live in one backing doc-id slice and one
// term-frequency slice, bucketed per term through start offsets, with the
// per-term idf values and the per-document tf-idf L2 norms precomputed at
// freeze time. The layout mirrors graph.CSR and the PageRank kernels:
// pointer-free flat slices the scoring loops stream through.
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
// traffic allocates nothing per query. Only the matched entries of
// touched are dirty; release zeroes exactly those.
type scratch struct {
	score   []float64 // per-doc relevance accumulator
	seen    []uint8   // per-doc matched marker, 0 or 1
	touched []int32   // numDocs+1 slots; the first matched are the query's docs in first-touch order
	matched int
}

// initPool points the view's scratch pool at buffers sized to its
// documents. Every frozen view, global or shard, builds its scratch here.
func (f *frozen) initPool() {
	n := f.numDocs
	f.pool.New = func() any {
		return &scratch{score: make([]float64, n), seen: make([]uint8, n), touched: make([]int32, n+1)}
	}
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
	ix.moved.Store(nil)
	return f
}

// freeze flattens the postings into the CSR layout. The terms that have
// postings are laid out in sorted order and the norms accumulated term by
// term in that order — the exact summation order the incremental
// map-based scorer used — so every precomputed float is bitwise identical
// to what the historical ensureNorms produced, whatever order the terms
// were interned in. Postings within a term are already in ascending doc
// order because AddAnalyzed assigns ids sequentially and touches each
// term at most once per document.
func (ix *Index) freeze() *frozen {
	vocab := make([]int32, 0, len(ix.postings))
	n := ix.numDocs
	total := 0
	for id, plist := range ix.postings {
		if len(plist) > 0 {
			vocab = append(vocab, int32(id))
			total += len(plist)
		}
	}
	slices.SortFunc(vocab, func(a, b int32) int { return strings.Compare(ix.terms[a], ix.terms[b]) })
	f := &frozen{
		termID:  make(map[string]int32, len(vocab)),
		start:   make([]int32, len(vocab)+1),
		docs:    make([]int32, 0, total),
		tfs:     make([]float32, 0, total),
		idf:     make([]float64, len(vocab)),
		norm:    make([]float64, n),
		numDocs: n,
	}
	for i, id := range vocab {
		f.termID[ix.terms[id]] = int32(i)
		plist := ix.postings[id]
		df := float64(len(plist))
		w := math.Log(1 + float64(n)/df)
		f.idf[i] = w
		for _, p := range plist {
			f.docs = append(f.docs, p.doc)
			f.tfs = append(f.tfs, float32(p.tf))
			x := float64(p.tf) * w
			f.norm[p.doc] += float64(x * x)
		}
		f.start[i+1] = int32(len(f.docs))
	}
	for i := range f.norm {
		f.norm[i] = math.Sqrt(f.norm[i])
	}
	f.initPool()
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
	for _, d := range sc.touched[:sc.matched] {
		sc.score[d] = 0
		sc.seen[d] = 0
	}
	sc.matched = 0
	f.pool.Put(sc)
}

// vectorKernel computes cosine(query, doc) over tf-idf weights into the
// scratch and returns the matched doc set and its largest score. terms
// must be sorted (Options.prepare sorts them): each run of equal terms is
// one distinct query term with its count, so each float accumulation
// happens in exactly the order the historical map-based scorer used and
// the scores are bitwise identical to it (pinned by
// TestSearchMatchesReference).
//
// The posting loop does not branch on whether a document was already
// seen — a data-dependent branch the CPU mispredicts. It writes the doc
// into the next touched slot every time and advances past it only on
// first contact (touched has one slot more than there are documents for
// the write after the last advance), so the touched order, and with it
// every float, is the branchy version's.
func (f *frozen) vectorKernel(terms []string, sc *scratch) ([]int32, float64) {
	score, seen, touched := sc.score, sc.seen, sc.touched
	m := 0
	qNorm := 0.0
	for i := 0; i < len(terms); {
		t, count := terms[i], 1
		for i+count < len(terms) && terms[i+count] == t {
			count++
		}
		i += count
		id, ok := f.termID[t]
		if !ok {
			continue // absent term: idf 0, contributes nothing
		}
		w := f.idf[id]
		qw := float64(count) * w
		qNorm += float64(qw * qw)
		lo, hi := f.start[id], f.start[id+1]
		docs, tfs := f.docs[lo:hi], f.tfs[lo:hi]
		for p, d := range docs {
			touched[m] = d
			m += int(seen[d] ^ 1)
			seen[d] = 1
			score[d] += float64(qw * float64(tfs[p]) * w)
		}
	}
	sc.matched = m
	if qNorm == 0 {
		// No query term appears in the corpus: empty result. (Any
		// present term has df >= 1, hence idf > 0 and qNorm > 0.)
		return nil, 0
	}
	qn := math.Sqrt(qNorm)
	maxRel := 0.0
	matched := touched[:m]
	for _, d := range matched {
		if f.norm[d] > 0 {
			score[d] /= qn * f.norm[d]
		}
		if score[d] > maxRel {
			maxRel = score[d]
		}
	}
	return matched, maxRel
}
