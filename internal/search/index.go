// Package search implements the search-engine substrate the paper's
// motivation rests on: an inverted index with tf-idf vector-space
// retrieval (the "first-generation" ranking the paper discusses),
// combined with a link-based authority score — PageRank or the
// quality estimate — to produce the final ranking. Section 4's
// relevance-versus-quality argument maps directly onto this two-stage
// design: the query selects the relevant set, the authority vector orders
// it.
//
// Queries are served from a frozen, CSR-style posting layout (see
// frozen.go): flat doc-id and term-frequency slices per sorted term with
// idf values and norms precomputed, scored by a branch-free kernel into
// dense pooled accumulators. Selection offers the matched documents to a
// bounded top-k heap — in doc order, or, given an AuthorityOrder (see
// order.go), in descending authority, stopping once no document left can
// enter the top k. SearchRanks instead quickselects the ranks a caller
// names out of the whole relevant set (see topk.go). The results are
// bitwise identical to the original
// map-accumulator scorer, which the regression tests retain as an
// oracle.
package search

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
)

// ErrBadQuery reports an unusable query or configuration.
var ErrBadQuery = errors.New("search: bad query")

// Tokenize lowercases the text and splits it into maximal alphanumeric
// runs. It is the single tokenizer used for both documents and queries so
// the two can never disagree.
func Tokenize(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// posting records one document containing a term.
type posting struct {
	doc int32
	tf  int32
}

// Index is an in-memory inverted index. Documents are added once and
// identified by the dense int id returned from Add; the caller typically
// uses graph.NodeID values as document ids by adding documents in node
// order.
//
// Once built, an Index is safe for any number of concurrent Search
// calls: the first query freezes the postings into an immutable flat
// layout that all queries share. Adding documents concurrently with
// searching is not supported.
//
// Adding after a freeze is the supported refresh path: ids are sequential
// and each term's postings append in doc order, so the next freeze is
// bit-identical to that of an index rebuilt from all the documents
// (webcorpus grows one Index this way for a simulation's lifetime).
// Anything sized to the old document count — an Options.Authority
// vector, a ranking.Context — must not outlive the refresh.
type Index struct {
	postings map[string][]posting
	numDocs  int

	mu sync.Mutex             // serialises freeze after a mutation
	fz atomic.Pointer[frozen] // current frozen view; nil after mutation
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{postings: make(map[string][]posting)}
}

// Analyzed is one tokenized document, ready for AddAnalyzed: its distinct
// terms in first-occurrence order and each term's frequency. It is a
// plain value, so documents can be analysed concurrently (a map phase)
// and added in order afterwards.
type Analyzed struct {
	Terms []string
	TFs   []int32 // TFs[i] is the number of occurrences of Terms[i]
}

// Analyze tokenizes a document exactly as Tokenize does and counts its
// terms. A pure-ASCII document takes a single pass that lower-cases
// token by token and allocates a string only the first time the document
// sees a term: below 0x80 unicode.IsLetter/IsDigit are the ASCII letters
// and digits and strings.ToLower touches only 'A'-'Z', so the tokens are
// Tokenize's. Any byte >= 0x80 sends the whole document through Tokenize
// itself.
func Analyze(text string) Analyzed {
	distinct := len(text) / 24 // a guess that spares most regrowth, nothing more
	a := Analyzed{Terms: make([]string, 0, distinct), TFs: make([]int32, 0, distinct)}
	slot := make(map[string]int32, distinct) // term -> index in a.Terms
	count := func(tok []byte) {
		i, seen := slot[string(tok)] // no allocation: lookup-only conversion
		if !seen {
			i = int32(len(a.Terms))
			term := string(tok)
			slot[term] = i
			a.Terms = append(a.Terms, term)
			a.TFs = append(a.TFs, 0)
		}
		a.TFs[i]++
	}
	tok := make([]byte, 0, 64) // the token being lower-cased
	for i := 0; i < len(text); i++ {
		switch c := text[i]; {
		case c >= 0x80:
			a = Analyzed{}
			clear(slot)
			for _, t := range Tokenize(text) {
				count([]byte(t))
			}
			return a
		case c >= 'A' && c <= 'Z':
			tok = append(tok, c+('a'-'A'))
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			tok = append(tok, c)
		case len(tok) > 0:
			count(tok)
			tok = tok[:0]
		}
	}
	if len(tok) > 0 {
		count(tok)
	}
	return a
}

// Add indexes one document and returns its id (sequential from 0).
func (ix *Index) Add(text string) int { return ix.AddAnalyzed(Analyze(text)) }

// AddAnalyzed indexes one analysed document and returns its id
// (sequential from 0). A term's postings are in ascending doc order
// whatever order the terms arrive in, so the frozen layout does not
// depend on it.
func (ix *Index) AddAnalyzed(a Analyzed) int {
	id := ix.numDocs
	for i, t := range a.Terms {
		ix.postings[t] = append(ix.postings[t], posting{doc: int32(id), tf: a.TFs[i]})
	}
	ix.numDocs++
	ix.fz.Store(nil)
	return id
}

// AddAll indexes the documents in order; document ids equal slice indices.
func (ix *Index) AddAll(texts []string) {
	for _, t := range texts {
		ix.Add(t)
	}
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return ix.numDocs }

// Freeze eagerly builds the immutable posting layout that Search would
// otherwise build lazily on first query. Callers that publish an index to
// concurrent readers (e.g. a serving generation swapped in behind an
// atomic pointer) call this once at build time so the freeze cost is paid
// off the query path and every reader only ever observes a fully built
// index. Idempotent until the next Add.
func (ix *Index) Freeze() { ix.frozen() }

// NumTerms returns the vocabulary size.
func (ix *Index) NumTerms() int { return len(ix.postings) }

// Hit is one search result.
type Hit struct {
	// Doc is the document id.
	Doc int
	// Score is the final ranking score (higher is better).
	Score float64
	// Relevance is the content-only score before authority blending.
	Relevance float64
}

// Options configures Search.
type Options struct {
	// TopK bounds the number of results (default 10). Zero selects the
	// default, negative values are rejected, and values beyond the number
	// of indexed documents are clamped to it.
	TopK int
	// Authority, when non-nil, re-ranks the relevant set by blending the
	// normalised relevance with the normalised authority score:
	//     score = (1-w)·rel + w·auth
	// This is where PageRank or the quality estimate plugs in. It must
	// have one entry per document.
	Authority []float64
	// AuthorityWeight is w above, in [0,1] (default 0.5 when Authority is
	// set). Weight 1 reproduces the paper's framing exactly: relevance
	// only selects the set, authority alone orders it.
	AuthorityWeight float64
	// Order, when non-nil, must be NewAuthorityOrder(Authority) — built
	// over this very slice, which must not have changed since. Search
	// then selects by walking the documents in authority order and stops
	// at the first one that cannot enter the top k; the hits are the
	// ones it returns without Order. ShardedIndex checks it and ignores it.
	Order *AuthorityOrder
}

// prepare is the query preamble Index.Search and
// ShardedIndex.SearchContext share: defaults and validation against the
// corpus size, then the query's tokens, of which there must be one,
// sorted for vectorKernel.
func (o *Options) prepare(query string, numDocs int) ([]string, error) {
	if err := o.fill(numDocs); err != nil {
		return nil, err
	}
	terms := Tokenize(query)
	if len(terms) == 0 {
		return nil, fmt.Errorf("%w: empty query", ErrBadQuery)
	}
	slices.Sort(terms)
	return terms, nil
}

func (o *Options) fill(numDocs int) error {
	if o.TopK == 0 {
		o.TopK = 10
	}
	if o.TopK < 1 {
		return fmt.Errorf("%w: TopK=%d", ErrBadQuery, o.TopK)
	}
	if numDocs > 0 && o.TopK > numDocs {
		o.TopK = numDocs
	}
	if o.Authority != nil {
		if len(o.Authority) != numDocs {
			return fmt.Errorf("%w: authority length %d != docs %d", ErrBadQuery, len(o.Authority), numDocs)
		}
		if o.AuthorityWeight == 0 {
			o.AuthorityWeight = 0.5
		}
		if o.AuthorityWeight < 0 || o.AuthorityWeight > 1 {
			return fmt.Errorf("%w: AuthorityWeight=%g", ErrBadQuery, o.AuthorityWeight)
		}
	}
	if o.Order != nil && !o.Order.builtOver(o.Authority) {
		return fmt.Errorf("%w: authority order not built over Authority", ErrBadQuery)
	}
	return nil
}

// Search retrieves the documents matching the query and ranks them by
// tf-idf cosine similarity (Salton's vector-space model [21]), blended
// with Options.Authority when set. It is safe for concurrent use as long
// as no Add runs at the same time.
func (ix *Index) Search(query string, opts Options) ([]Hit, error) {
	terms, err := opts.prepare(query, ix.NumDocs())
	if err != nil {
		return nil, err
	}
	f := ix.frozen()
	sc := f.getScratch()
	defer f.release(sc)
	docs, maxRel := f.vectorKernel(terms, sc)
	if len(docs) == 0 {
		return nil, nil
	}
	if opts.Order != nil {
		return opts.Order.selectTop(sc, len(docs), maxRel, opts), nil
	}
	return blendAndSelect(docs, sc.score, maxRel, opts), nil
}

// SearchRanks returns the hits at the ranks pick names in the query's
// whole relevant set, in pick's order, bitwise equal to what a Search
// with TopK m holds there. pick is called once with the match count m
// (never when nothing matches); a rank outside [0, m) panics. The ranks
// are selected, not sorted into place, so a few ranks of a large set
// cost about one pass over it. TopK and Order play no part.
func (ix *Index) SearchRanks(query string, opts Options, pick func(m int) []int) ([]Hit, error) {
	terms, err := opts.prepare(query, ix.NumDocs())
	if err != nil {
		return nil, err
	}
	f := ix.frozen()
	sc := f.getScratch()
	defer f.release(sc)
	docs, maxRel := f.vectorKernel(terms, sc)
	if len(docs) == 0 {
		return nil, nil
	}
	ranks := pick(len(docs))
	wanted := slices.Clone(ranks)
	slices.Sort(wanted)
	wanted = slices.Compact(wanted)
	maxAuth := matchedMaxAuth(docs, opts)
	all := sc.hits[:0]
	for _, d := range docs {
		all = append(all, blendHit(int(d), sc.score[d], maxRel, maxAuth, opts))
	}
	sc.hits = all
	selectRanks(all, wanted)
	hits := make([]Hit, len(ranks))
	for i, r := range ranks {
		hits[i] = all[r]
	}
	return hits, nil
}

// blendAndSelect blends the normalised relevance scores with the
// authority signal and selects the top k hits, offering every matched
// document. The max-reductions are order-independent and the per-doc
// blend uses exactly the expressions of the historical scorer, so the
// hit list is bitwise identical to building every hit and fully sorting
// (see topK).
func blendAndSelect(docs []int32, rel []float64, maxRel float64, opts Options) []Hit {
	maxAuth := matchedMaxAuth(docs, opts)
	top := newTopK(opts.TopK, len(docs))
	for _, d := range docs {
		top.offer(blendHit(int(d), rel[d], maxRel, maxAuth, opts))
	}
	return top.ranked()
}

// matchedMaxAuth is the largest authority over the matched documents, or
// 0 without an authority vector; blendHit normalises by it only when it
// is positive.
func matchedMaxAuth(docs []int32, opts Options) float64 {
	var maxAuth float64
	if opts.Authority != nil {
		for _, d := range docs {
			if a := opts.Authority[d]; a > maxAuth {
				maxAuth = a
			}
		}
	}
	return maxAuth
}

// blendHit builds the final hit for one document from its relevance and
// the corpus-global maxima. The linear pass, the authority-order walk
// and the sharded path all rank through this single function, so their
// per-doc floats cannot diverge: the expressions are exactly the
// historical scorer's.
func blendHit(doc int, rel, maxRel, maxAuth float64, opts Options) Hit {
	h := Hit{Doc: doc, Relevance: rel}
	relNorm := 0.0
	if maxRel > 0 {
		relNorm = rel / maxRel
	}
	if opts.Authority != nil {
		authNorm := 0.0
		if maxAuth > 0 {
			authNorm = opts.Authority[doc] / maxAuth
		}
		h.Score = float64((1-opts.AuthorityWeight)*relNorm) + float64(opts.AuthorityWeight*authNorm)
	} else {
		h.Score = relNorm
	}
	return h
}

// sortedVocab returns every indexed term in sorted order.
func (ix *Index) sortedVocab() []string {
	terms := make([]string, 0, len(ix.postings))
	for t := range ix.postings {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	return terms
}
