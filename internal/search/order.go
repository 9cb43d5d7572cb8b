package search

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// AuthorityOrder is one authority vector's documents by descending
// authority, ties by ascending doc id: the query-independent global order
// that Section 4's framing gives a result list, where relevance selects
// the set and authority orders it. With it, selection visits the matched
// documents best authority first and stops as soon as none of the rest
// can enter the top k (Options.Order).
//
// An order is read-only once built, so any number of concurrent searches
// may share it. It describes the vector it was built over and goes stale
// if that vector changes.
type AuthorityOrder struct {
	auth []float64 // the vector the order was built over
	docs []int32   // every doc id, highest authority first
}

// NewAuthorityOrder sorts the documents of auth by descending authority,
// ties by ascending id. NaN and ±Inf are rejected: NaN has no place in a
// descending order, and an infinite maximum leaves no finite bound.
func NewAuthorityOrder(auth []float64) (*AuthorityOrder, error) {
	docs := make([]int32, len(auth))
	for d, a := range auth {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return nil, fmt.Errorf("%w: authority[%d] = %g", ErrBadQuery, d, a)
		}
		docs[d] = int32(d)
	}
	slices.SortFunc(docs, func(x, y int32) int {
		switch {
		case auth[x] > auth[y]:
			return -1
		case auth[y] > auth[x]:
			return 1
		}
		return cmp.Compare(x, y)
	})
	return &AuthorityOrder{auth: auth, docs: docs}, nil
}

// builtOver reports whether o was built over exactly this slice: the same
// backing array at the same length.
func (o *AuthorityOrder) builtOver(auth []float64) bool {
	if auth == nil || len(o.auth) != len(auth) {
		return false
	}
	return len(auth) == 0 || &o.auth[0] == &auth[0]
}

// walkChunk is how many order entries the walk filters for members at a
// time.
const walkChunk = 64

// selectTop is blendAndSelect walking the matched documents in authority
// order. The first member met has the largest authority of the relevant
// set, so it fixes maxAuth; as in blendAndSelect, only a positive one
// normalises. From then on, a member with authority a cannot score above
//
//	(1-w) + w*(a/maxAuth)
//
// exactly, in IEEE arithmetic: blendHit computes (1-w)*relNorm +
// w*(a/maxAuth) with the same association, relNorm = rel/maxRel is at
// most 1, rounding is monotone, and every later member's authority is at
// most a. So once that bound is strictly below the heap's worst retained
// score, no member left can enter and the walk stops. Without a positive
// maxAuth every authority term is 0 and there is no bound: the walk
// offers every member.
//
// The walk filters the order a chunk at a time into a stack buffer
// without a branch on membership, then offers the chunk's members.
func (o *AuthorityOrder) selectTop(sc *scratch, matched int, maxRel float64, opts Options) []Hit {
	var maxAuth float64
	for _, d := range o.docs {
		if sc.seen[d] == 1 {
			maxAuth = o.auth[d]
			break
		}
	}
	w := opts.AuthorityWeight
	top := newTopK(opts.TopK, matched)
	var chunk [walkChunk]int32
	for lo := 0; matched > 0; lo += walkChunk {
		n := 0
		for _, d := range o.docs[lo:min(lo+walkChunk, len(o.docs))] {
			chunk[n] = d
			n += int(sc.seen[d])
		}
		matched -= n
		for _, d := range chunk[:n] {
			if maxAuth > 0 && top.closedBelow((1-w)+w*(o.auth[d]/maxAuth)) {
				return top.ranked()
			}
			top.offer(blendHit(int(d), sc.score[d], maxRel, maxAuth, opts))
		}
	}
	return top.ranked()
}
