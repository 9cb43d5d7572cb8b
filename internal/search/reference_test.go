package search

// This file preserves the pre-flattening scorer verbatim as the oracle
// for the regression tests: searchReference is the historical
// map-accumulator Search — per-query map[int32]float64 scores, lazily
// recomputed norms, full sort plus truncation — against which the
// frozen-kernel path must stay bitwise identical (same doc ids, same
// Float64bits). It lives in a test file so the shipped package carries
// exactly one scorer.

import (
	"math"
	"sort"
)

// queryCounts tallies term frequencies of a tokenized query.
func queryCounts(terms []string) map[string]int {
	qCounts := make(map[string]int, len(terms))
	for _, t := range terms {
		qCounts[t]++
	}
	return qCounts
}

// sortedKeys returns the map's keys in sorted order, the iteration order
// the reference scorer accumulates per-term floats in.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// termPostings rebuilds the term-keyed postings the reference scorers
// read from the intern table: every term of an added document, and no
// term that was only analysed.
func (ix *Index) termPostings() map[string][]posting {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	byTerm := make(map[string][]posting)
	for id, plist := range ix.postings {
		if len(plist) > 0 {
			byTerm[ix.terms[id]] = plist
		}
	}
	return byTerm
}

// idfReference is the smoothed inverse document frequency the
// reference scorers weigh terms by.
func (ix *Index) idfReference(byTerm map[string][]posting, term string) float64 {
	df := len(byTerm[term])
	if df == 0 {
		return 0
	}
	return math.Log(1 + float64(ix.numDocs)/float64(df))
}

// normsReference recomputes the per-document tf-idf L2 norms exactly as
// the old ensureNorms did: terms visited in sorted order, so each norm is
// the same ordered float sum.
func (ix *Index) normsReference() []float64 {
	byTerm := ix.termPostings()
	vocab := make([]string, 0, len(byTerm))
	for t := range byTerm {
		vocab = append(vocab, t)
	}
	sort.Strings(vocab)
	norm := make([]float64, ix.numDocs)
	for _, term := range vocab {
		w := ix.idfReference(byTerm, term)
		for _, p := range byTerm[term] {
			x := float64(p.tf) * w
			norm[p.doc] += x * x
		}
	}
	for i := range norm {
		norm[i] = math.Sqrt(norm[i])
	}
	return norm
}

// vectorScoresReference is the historical cosine scorer.
func (ix *Index) vectorScoresReference(terms []string) map[int32]float64 {
	norm := ix.normsReference()
	byTerm := ix.termPostings()
	qCounts := queryCounts(terms)
	scores := make(map[int32]float64)
	qNorm := 0.0
	for _, t := range sortedKeys(qCounts) {
		w := ix.idfReference(byTerm, t)
		if w == 0 {
			continue
		}
		qw := float64(qCounts[t]) * w
		qNorm += qw * qw
		for _, p := range byTerm[t] {
			scores[p.doc] += qw * float64(p.tf) * w
		}
	}
	if qNorm == 0 {
		return nil
	}
	qn := math.Sqrt(qNorm)
	for d := range scores {
		if norm[d] > 0 {
			scores[d] /= qn * norm[d]
		}
	}
	return scores
}

// searchReference is the historical Search: score into a map, build
// every hit, sort fully, truncate.
func (ix *Index) searchReference(query string, opts Options) ([]Hit, error) {
	if err := opts.fill(ix.NumDocs()); err != nil {
		return nil, err
	}
	terms := Tokenize(query)
	if len(terms) == 0 {
		return nil, ErrBadQuery
	}
	rel := ix.vectorScoresReference(terms)
	if len(rel) == 0 {
		return nil, nil
	}
	hits := make([]Hit, 0, len(rel))
	maxRel := 0.0
	for _, s := range rel {
		if s > maxRel {
			maxRel = s
		}
	}
	var maxAuth float64
	if opts.Authority != nil {
		for d := range rel {
			if a := opts.Authority[d]; a > maxAuth {
				maxAuth = a
			}
		}
	}
	for d, s := range rel {
		h := Hit{Doc: int(d), Relevance: s}
		relNorm := 0.0
		if maxRel > 0 {
			relNorm = s / maxRel
		}
		if opts.Authority != nil {
			authNorm := 0.0
			if maxAuth > 0 {
				authNorm = opts.Authority[d] / maxAuth
			}
			h.Score = (1-opts.AuthorityWeight)*relNorm + opts.AuthorityWeight*authNorm
		} else {
			h.Score = relNorm
		}
		hits = append(hits, h)
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score { //pqlint:allow floateq exact score ties decide the comparator's tie-break branch
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Doc < hits[j].Doc
	})
	if len(hits) > opts.TopK {
		hits = hits[:opts.TopK]
	}
	return hits, nil
}
