package metrics

import (
	"fmt"
	"math"
	"sort"
)

// KendallTau computes the Kendall rank correlation τ-b between two score
// vectors in O(n log n) using a merge-sort inversion count, with the
// standard tie corrections. τ = 1 means identical orderings, -1 reversed.
//
//pqlint:allow floateq τ-b tie corrections require detecting exactly equal scores; approximate ties would change the statistic
func KendallTau(a, b []float64) (float64, error) {
	n := len(a)
	if n != len(b) {
		return 0, fmt.Errorf("%w: length mismatch %d != %d", ErrBadInput, n, len(b))
	}
	if n < 2 {
		return 0, fmt.Errorf("%w: need >= 2 observations", ErrBadInput)
	}
	// Sort indices by a (ties broken by b so tied-a groups are b-sorted,
	// which the tie accounting below requires).
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		ai, aj := a[idx[i]], a[idx[j]]
		if ai != aj {
			return ai < aj
		}
		return b[idx[i]] < b[idx[j]]
	})

	// Tie counts in a.
	tiesA := int64(0)
	// Joint ties (same a and same b).
	tiesJoint := int64(0)
	for i := 0; i < n; {
		j := i
		for j < n && a[idx[j]] == a[idx[i]] {
			j++
		}
		m := int64(j - i)
		tiesA += m * (m - 1) / 2
		// joint ties inside this a-group
		for k := i; k < j; {
			l := k
			for l < j && b[idx[l]] == b[idx[k]] {
				l++
			}
			mm := int64(l - k)
			tiesJoint += mm * (mm - 1) / 2
			k = l
		}
		i = j
	}

	// b values in a-order; count discordant pairs = inversions in this
	// sequence (pairs with a ascending but b descending).
	bs := make([]float64, n)
	for i, id := range idx {
		bs[i] = b[id]
	}
	inv := countInversions(bs)

	// Tie counts in b.
	tiesB := int64(0)
	sortedB := append([]float64(nil), b...)
	sort.Float64s(sortedB)
	for i := 0; i < n; {
		j := i
		for j < n && sortedB[j] == sortedB[i] {
			j++
		}
		m := int64(j - i)
		tiesB += m * (m - 1) / 2
		i = j
	}

	total := int64(n) * int64(n-1) / 2
	// Pairs tied in a only, in b only, or both do not count as
	// concordant/discordant.
	concordantPlusDiscordant := total - tiesA - tiesB + tiesJoint
	discordant := inv
	concordant := concordantPlusDiscordant - discordant
	den := math.Sqrt(float64(total-tiesA)) * math.Sqrt(float64(total-tiesB))
	if den == 0 {
		return 0, fmt.Errorf("%w: a ranking is constant", ErrBadInput)
	}
	return float64(concordant-discordant) / den, nil
}

// countInversions counts pairs i<j with xs[i] > xs[j] by merge sort.
// Equal elements are not inversions.
func countInversions(xs []float64) int64 {
	buf := make([]float64, len(xs))
	work := append([]float64(nil), xs...)
	return mergeCount(work, buf)
}

func mergeCount(xs, buf []float64) int64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mid := n / 2
	inv := mergeCount(xs[:mid], buf[:mid]) + mergeCount(xs[mid:], buf[mid:])
	i, j, k := 0, mid, 0
	for i < mid && j < n {
		if xs[i] <= xs[j] {
			buf[k] = xs[i]
			i++
		} else {
			buf[k] = xs[j]
			inv += int64(mid - i)
			j++
		}
		k++
	}
	copy(buf[k:], xs[i:mid])
	copy(buf[k+mid-i:], xs[j:])
	copy(xs, buf[:n])
	return inv
}

// SpearmanRho computes Spearman's rank correlation: the Pearson
// correlation of the (average-of-ties) rank transforms.
func SpearmanRho(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: length mismatch %d != %d", ErrBadInput, len(a), len(b))
	}
	if len(a) < 2 {
		return 0, fmt.Errorf("%w: need >= 2 observations", ErrBadInput)
	}
	ra := fractionalRanks(a)
	rb := fractionalRanks(b)
	return pearson(ra, rb)
}

// fractionalRanks assigns 1-based ranks, averaging over ties.
//
//pqlint:allow floateq tie groups are exactly-equal scores by definition
func fractionalRanks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return xs[idx[i]] < xs[idx[j]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j < n && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		avg := (float64(i+1) + float64(j)) / 2 // mean of ranks i+1..j
		for k := i; k < j; k++ {
			ranks[idx[k]] = avg
		}
		i = j
	}
	return ranks
}

func pearson(a, b []float64) (float64, error) {
	n := float64(len(a))
	var sa, sb float64
	for i := range a {
		sa += a[i]
		sb += b[i]
	}
	ma, mb := sa/n, sb/n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0, fmt.Errorf("%w: constant input", ErrBadInput)
	}
	return cov / math.Sqrt(va*vb), nil
}

// NDCG computes the normalised discounted cumulative gain at k of a
// ranking (scores) against non-negative relevance grades: how well the
// score ordering surfaces the truly relevant items near the top.
//
//pqlint:allow floateq exact-tie detection so equal scores fall through to the index tie-break
func NDCG(scores, relevance []float64, k int) (float64, error) {
	if len(scores) != len(relevance) {
		return 0, fmt.Errorf("%w: length mismatch %d != %d", ErrBadInput, len(scores), len(relevance))
	}
	if k < 1 || k > len(scores) {
		return 0, fmt.Errorf("%w: k=%d outside [1,%d]", ErrBadInput, k, len(scores))
	}
	for _, r := range relevance {
		if r < 0 || math.IsNaN(r) {
			return 0, fmt.Errorf("%w: negative relevance", ErrBadInput)
		}
	}
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if scores[order[i]] != scores[order[j]] {
			return scores[order[i]] > scores[order[j]]
		}
		return order[i] < order[j]
	})
	dcg := 0.0
	for pos := 0; pos < k; pos++ {
		dcg += relevance[order[pos]] / math.Log2(float64(pos)+2)
	}
	ideal := append([]float64(nil), relevance...)
	sort.Sort(sort.Reverse(sort.Float64Slice(ideal)))
	idcg := 0.0
	for pos := 0; pos < k; pos++ {
		idcg += ideal[pos] / math.Log2(float64(pos)+2)
	}
	if idcg == 0 {
		return 0, fmt.Errorf("%w: all relevance zero", ErrBadInput)
	}
	return dcg / idcg, nil
}
