package search

import "slices"

// topK selects the best k hits under the ranking order — score
// descending, then doc id ascending — without sorting the full candidate
// set. It is a bounded min-heap whose root is the worst hit retained, so
// once the heap is full each losing candidate is rejected with a single
// comparison and each winner costs O(log k). Because the comparator is a
// total order (doc ids are unique), the selected set and its final order
// are identical to sorting every candidate and truncating — the contract
// TestSearchMatchesReference pins bitwise.
type topK struct {
	k    int
	hits []Hit
}

// newTopK sizes the heap to the candidates it will be offered: a relevant
// set smaller than k never fills it (Options.fill clamps k to the corpus).
func newTopK(k, candidates int) *topK {
	k = min(k, candidates)
	return &topK{k: k, hits: make([]Hit, 0, k)}
}

// ranksAfter reports whether a ranks strictly after b: lower score, or
// equal score and higher doc id. Two strict comparisons express the exact
// tie-break without a float equality test.
func ranksAfter(a, b Hit) bool {
	if a.Score < b.Score {
		return true
	}
	if b.Score < a.Score {
		return false
	}
	return a.Doc > b.Doc
}

// offer considers one candidate hit.
func (t *topK) offer(h Hit) {
	if len(t.hits) < t.k {
		t.hits = append(t.hits, h)
		i := len(t.hits) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !ranksAfter(t.hits[i], t.hits[p]) {
				break
			}
			t.hits[i], t.hits[p] = t.hits[p], t.hits[i]
			i = p
		}
		return
	}
	if !ranksAfter(t.hits[0], h) {
		return // h is no better than the worst retained hit
	}
	t.hits[0] = h
	i, n := 0, len(t.hits)
	for {
		worst := i
		if l := 2*i + 1; l < n && ranksAfter(t.hits[l], t.hits[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < n && ranksAfter(t.hits[r], t.hits[worst]) {
			worst = r
		}
		if worst == i {
			break
		}
		t.hits[i], t.hits[worst] = t.hits[worst], t.hits[i]
		i = worst
	}
}

// closedBelow reports whether no hit scoring at most bound can enter any
// more: the heap is full and bound is strictly below its worst retained
// score. At equal scores the doc id decides, so equality keeps it open.
func (t *topK) closedBelow(bound float64) bool {
	return len(t.hits) == t.k && bound < t.hits[0].Score
}

// ranked returns the retained hits in final ranking order.
func (t *topK) ranked() []Hit {
	slices.SortFunc(t.hits, compareHits)
	return t.hits
}

// compareHits is the ranking order as a slices.SortFunc comparator.
func compareHits(a, b Hit) int {
	switch {
	case ranksAfter(b, a):
		return -1
	case ranksAfter(a, b):
		return 1
	}
	return 0
}
