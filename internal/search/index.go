// Package search implements the search-engine substrate the paper's
// motivation rests on: an inverted index with tf-idf vector-space
// retrieval (the "first-generation" ranking the paper discusses),
// combined with a link-based authority score — PageRank or the
// quality estimate — to produce the final ranking. Section 4's
// relevance-versus-quality argument maps directly onto this two-stage
// design: the query selects the relevant set, the authority vector orders
// it.
//
// A query is tokenized as text; a document is tokenized as the text a
// reader sees in it, with its markup, comments, scripts, styles and
// anchor text skipped (see Analyze).
//
// Queries are served from a frozen, CSR-style posting layout (see
// frozen.go): flat doc-id and term-frequency slices per sorted term with
// idf values and norms precomputed, scored by a branch-free kernel into
// dense pooled accumulators. Selection offers the matched documents to a
// bounded top-k heap — in doc order, or, given an AuthorityOrder (see
// order.go), in descending authority, stopping once no document left can
// enter the top k. The results are bitwise identical to the original
// map-accumulator scorer, which the regression tests retain as an
// oracle.
package search

import (
	"errors"
	"fmt"
	"html"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
)

// ErrBadQuery reports an unusable query or configuration.
var ErrBadQuery = errors.New("search: bad query")

// Tokenize lowercases the text and splits it into maximal runs of term
// runes. It is the single tokenizer: a query is tokenized as it stands
// and a document as its visible text (Analyze), so the two can never
// disagree on a term.
func Tokenize(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool { return !IsTermRune(r) })
}

// IsTermRune reports whether r belongs to a term: a letter or a digit.
// Lowercasing maps no rune across this line, so text holds a term exactly
// when it holds a term rune.
func IsTermRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

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
// Every term is interned once, in arrival order: one table from term to
// id and the postings per id. Analyze may run concurrently with Analyze
// and AddAnalyzed; ids depend on the schedule but never leave the index,
// and the freeze lays terms out in sorted order.
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
	mu        sync.Mutex       // guards the intern table and postings; serialises freeze
	ids       map[string]int32 // term -> id, in arrival order
	terms     []string         // id -> term
	postings  [][]posting      // per id; empty for a term analysed but never added
	numDocs   int
	fz        atomic.Pointer[frozen]  // current frozen view; nil after mutation
	analyzers sync.Pool               // *analyzer
	moved     atomic.Pointer[termMap] // Reintern's map from its last source; a freeze drops it
}

// termMap translates one source index's term ids into an index's own:
// ids[s] is 1 + the id here of terms[s], the source's term s, or 0 until
// a Reintern first meets it. Reintern calls share it without a lock; two
// that meet a term at once store its one id.
type termMap struct {
	src   *Index
	terms []string // the source's terms when the map was made
	ids   []atomic.Int32
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	ix := &Index{ids: make(map[string]int32)}
	ix.analyzers.New = func() any { return &analyzer{cache: make(map[string]int32)} }
	return ix
}

// Analyzed is one tokenized document, ready for AddAnalyzed on the index
// that analysed it: its distinct term ids in first-occurrence order and
// their frequencies. Analyse concurrently (a map phase), add in order.
type Analyzed struct {
	ix  *Index
	ids []int32
	tfs []int32 // tfs[i] is the number of occurrences of term ids[i]
}

// analyzer is one worker's pooled Analyze scratch: a private cache of
// interned terms, so only a term new to the worker takes the index lock.
type analyzer struct {
	cache   map[string]int32 // interned term -> id
	tf      []int32          // by id; nonzero only at touched ids
	touched []int32          // the document's ids in first-occurrence order
}

func (an *analyzer) count(ix *Index, tok []byte) {
	id, ok := an.cache[string(tok)] // no allocation: lookup-only conversion
	if !ok {
		id = an.intern(ix, tok)
	}
	an.add(id)
}

func (an *analyzer) add(id int32) {
	if int(id) >= len(an.tf) {
		an.tf = append(an.tf, make([]int32, int(id)+1-len(an.tf))...)
	}
	if an.tf[id] == 0 {
		an.touched = append(an.touched, id)
	}
	an.tf[id]++
}

// intern looks tok up in the index's table under its lock, adding it on
// first arrival (one string per term per index), and caches that copy.
func (an *analyzer) intern(ix *Index, tok []byte) int32 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	id, ok := ix.ids[string(tok)]
	if !ok {
		id = int32(len(ix.terms))
		ix.terms = append(ix.terms, string(tok))
		ix.ids[ix.terms[id]] = id
		ix.postings = append(ix.postings, nil)
	}
	an.cache[ix.terms[id]] = id
	return id
}

// Analyze counts the terms of a document's visible text: Tokenize of the
// runs of text between its pieces of markup, each run entity-decoded as
// html.UnescapeString decodes it and each piece a term break. A piece is
// what ReadTag reads, except that an <a> element, in any case, runs on to
// the '>' of its close tag: on the served pages anchor text is the linked
// page's URL. A document holding no '<' and no '&' is tokenized exactly
// as Tokenize does.
//
// An ASCII document with no '&' in its visible text takes one pass that
// skips the markup and lower-cases token by token: below 0x80 IsTermRune
// holds for the ASCII letters and digits alone and strings.ToLower
// touches only 'A'-'Z', so the tokens are Tokenize's. A visible '&' or
// any byte >= 0x80 sends the whole document through Tokenize of
// visibleText. Only the two output slices are allocated.
func (ix *Index) Analyze(text string) Analyzed {
	an := ix.analyzers.Get().(*analyzer)
	defer ix.analyzers.Put(an)
	an.scan(ix, text)
	return an.done(ix)
}

// scan counts the visible tokens of text, which must start the document.
func (an *analyzer) scan(ix *Index, text string) {
	tok := make([]byte, 0, 64) // the token being lower-cased
	for i := 0; i < len(text); i++ {
		switch c := text[i]; {
		case c >= 0x80 || c == '&':
			clear(an.tf) // O(vocabulary), but Tokenize costs more
			an.touched = an.touched[:0]
			for _, t := range Tokenize(visibleText(text)) {
				an.count(ix, []byte(t))
			}
			return
		case c >= 'A' && c <= 'Z':
			tok = append(tok, c+('a'-'A'))
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			tok = append(tok, c)
		default:
			if len(tok) > 0 {
				an.count(ix, tok)
				tok = tok[:0]
			}
			if c == '<' {
				i = skipMarkup(text, i) - 1
			}
		}
	}
	if len(tok) > 0 {
		an.count(ix, tok)
	}
}

// visibleText is the text Analyze tokenizes: each run of doc between
// pieces of markup, entity-decoded, with one space for each piece.
func visibleText(doc string) string {
	var b strings.Builder
	for i := 0; i < len(doc); {
		lt := strings.IndexByte(doc[i:], '<')
		if lt < 0 {
			lt = len(doc) - i
		}
		b.WriteString(html.UnescapeString(doc[i : i+lt]))
		if i += lt; i < len(doc) {
			b.WriteByte(' ')
			i = skipMarkup(doc, i)
		}
	}
	return b.String()
}

// skipMarkup returns the index just past the piece of markup at doc[i] ==
// '<': ReadTag's, or an <a> element's through the '>' of its close tag.
func skipMarkup(doc string, i int) int {
	name, _, end := ReadTag(doc, i)
	if strings.EqualFold(name, "a") {
		return closeTag(doc, end, name)
	}
	return end
}

// ReadTag reads the piece of markup at doc[i] == '<', by the one rule the
// index and the crawler cut markup by, and returns its tag name as written
// (match it with EqualFold), its unparsed attributes and the index just
// past it. A piece runs from '<' to the next '>', its name the run of
// IsNameByte after '<'; a comment from "<!--" to "-->"; a <script> or
// <style> element, in any case, to the '>' of the next close tag of its
// name. A close tag, "<!", "<?" and a piece whose end is missing have no
// name, and the last runs to the end of the document.
func ReadTag(doc string, i int) (name, attrs string, end int) {
	if strings.HasPrefix(doc[i:], "<!--") {
		return "", "", after(doc, i+4, "-->")
	}
	gt := strings.IndexByte(doc[i:], '>')
	if gt < 0 {
		return "", "", len(doc)
	}
	gt += i
	n := i + 1
	for n < gt && IsNameByte(doc[n]) {
		n++
	}
	name, attrs, end = doc[i+1:n], doc[n:gt], gt+1
	if len(name) >= len("style") && (strings.EqualFold(name, "script") || strings.EqualFold(name, "style")) {
		end = closeTag(doc, end, name) // the length test spares most tags both calls
	}
	return name, attrs, end
}

// closeTag returns the index just past the '>' of the first close tag of
// name at or after doc[i], or len(doc) if there is none.
func closeTag(doc string, i int, name string) int {
	for {
		k := strings.Index(doc[i:], "</")
		if k < 0 {
			return len(doc)
		}
		i += k + 2
		if rest := doc[i:]; len(rest) >= len(name) && strings.EqualFold(rest[:len(name)], name) &&
			(len(rest) == len(name) || !IsNameByte(rest[len(name)])) {
			return after(doc, i, ">")
		}
	}
}

// after returns the index just past the first sep in doc at or after i,
// or len(doc) if there is none.
func after(doc string, i int, sep string) int {
	if k := strings.Index(doc[i:], sep); k >= 0 {
		return i + k + len(sep)
	}
	return len(doc)
}

// IsNameByte reports whether c belongs to a tag name: an ASCII letter or
// digit.
func IsNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// done returns the counted document and leaves the scratch empty.
func (an *analyzer) done(ix *Index) Analyzed {
	a := Analyzed{ix: ix, ids: slices.Clone(an.touched), tfs: make([]int32, len(an.touched))}
	for i, id := range an.touched {
		a.tfs[i], an.tf[id] = an.tf[id], 0
	}
	an.touched = an.touched[:0]
	return a
}

// Lexicon is a word list interned into one index once, so that documents
// written in its words are counted without the tokenizer.
type Lexicon struct {
	ix  *Index
	ids [][]int32 // per word, the term ids of its tokens in order
}

// Lexicon interns the tokens of every word. A word may hold any number
// of tokens; interning a term adds nothing to the index until a document
// holding it is added.
func (ix *Index) Lexicon(words []string) *Lexicon {
	an := ix.analyzers.Get().(*analyzer)
	defer ix.analyzers.Put(an)
	lx := &Lexicon{ix: ix, ids: make([][]int32, len(words))}
	for w, word := range words {
		for _, t := range Tokenize(word) {
			lx.ids[w] = append(lx.ids[w], an.intern(ix, []byte(t)))
		}
	}
	return lx
}

// Analyze is the index's Analyze of the text title followed by the words
// at slots, each after a space: the same term ids with the same counts in
// the same order, when the title and the words hold no '<' and no '&'.
// Only the title is tokenized.
func (lx *Lexicon) Analyze(title string, slots []int) Analyzed {
	an := lx.ix.analyzers.Get().(*analyzer)
	defer lx.ix.analyzers.Put(an)
	an.scan(lx.ix, title)
	for _, w := range slots {
		for _, id := range lx.ids[w] {
			an.add(id)
		}
	}
	return an.done(lx.ix)
}

// Reintern returns a, which another index analysed, as a document of
// this index: each term interned here by its string, with its count, in
// a's order. It equals this index's Analyze of the text a was analysed
// from, so a document analysed once can be added to every later index
// without reading its text again. Like Analyze, it may run concurrently.
//
// A term moves by id: the index keeps a map from the source index's term
// ids to its own, made anew whenever the source changes or has grown past
// it, and interns a term by its string only the first time the map misses
// it. The freeze drops the map, so a frozen index keeps no source
// reachable.
func (ix *Index) Reintern(a Analyzed) Analyzed {
	an := ix.analyzers.Get().(*analyzer)
	defer ix.analyzers.Put(an)
	m := ix.moved.Load()
	ids := make([]int32, len(a.ids))
	for i, id := range a.ids {
		if m == nil || m.src != a.ix || int(id) >= len(m.terms) {
			a.ix.mu.Lock()
			terms := a.ix.terms // append-only: the entries a names never change
			a.ix.mu.Unlock()
			m = &termMap{src: a.ix, terms: terms, ids: make([]atomic.Int32, len(terms))}
			ix.moved.Store(m)
		}
		if v := m.ids[id].Load(); v != 0 {
			ids[i] = v - 1
			continue
		}
		var ok bool
		if ids[i], ok = an.cache[m.terms[id]]; !ok {
			ids[i] = an.intern(ix, []byte(m.terms[id]))
		}
		m.ids[id].Store(ids[i] + 1)
	}
	return Analyzed{ix: ix, ids: ids, tfs: a.tfs}
}

// Add indexes one document; ids are sequential from 0.
func (ix *Index) Add(text string) { ix.AddAnalyzed(ix.Analyze(text)) }

// AddAnalyzed indexes one document this index analysed and returns its
// id (sequential from 0); another index's document panics. A term's
// postings are in ascending doc order whatever order the terms arrive
// in, so the frozen layout does not depend on it.
func (ix *Index) AddAnalyzed(a Analyzed) int {
	if a.ix != ix {
		panic("search: AddAnalyzed of a document another index analysed")
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	doc := ix.numDocs
	for i, id := range a.ids {
		ix.postings[id] = append(ix.postings[id], posting{doc: int32(doc), tf: a.tfs[i]})
	}
	ix.numDocs++
	ix.fz.Store(nil)
	return doc
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

// NumTerms returns the frozen vocabulary size: the terms of added documents.
func (ix *Index) NumTerms() int { return len(ix.frozen().termID) }

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
