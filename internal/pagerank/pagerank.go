// Package pagerank implements the popularity metrics the paper builds on:
// the PageRank power iteration in both the paper's un-normalised,
// 1-initialised form (Section 3) and the standard stochastic form, with
// configurable damping, parallel execution and Aitken Δ² extrapolation
// acceleration. Dangling pages follow the paper's footnote — "If a page
// has no outgoing link, we assume that it has outgoing links to every
// single Web page" — and the jump is uniform; no other policy exists. The
// package also provides the HITS and in-degree baselines referenced in the
// paper's related work.
//
// Compute is the hot path of every experiment: one flat kernel over the
// CSR's raw in-adjacency arrays, with a precomputed inverse-out-degree
// table and all per-iteration reductions (dangling mass, vector sum, L1
// delta) fused into the parallel sweeps as per-chunk partials.
// ComputeReference retains the straightforward serial implementation as
// the correctness oracle.
package pagerank

import (
	"errors"
	"fmt"
	"math"

	"pagequality/internal/graph"
	"pagequality/internal/par"
)

// Variant selects the normalisation convention of the computed vector.
type Variant uint8

const (
	// VariantPaper matches Section 3 of the paper:
	//     PR(p_i) = d + (1-d) [PR(p_1)/c_1 + ... + PR(p_m)/c_m]
	// with every PR initialised to 1 (as in the paper's experiment, §8.1).
	// The vector sums to ~NumNodes and individual values are >= d.
	VariantPaper Variant = iota
	// VariantStandard is the stochastic random-surfer form: the vector is a
	// probability distribution summing to 1.
	VariantStandard
)

// Options configures Compute.
type Options struct {
	// Variant selects the normalisation convention. Default VariantPaper.
	Variant Variant
	// Jump is the paper's damping factor d: the probability that the
	// random surfer abandons the link chain and jumps to a random page.
	// Defaults to 0.15. (Note Google literature often calls 1-Jump the
	// damping factor.)
	Jump float64
	// Tol is the L1 convergence threshold on successive iterates,
	// measured on the normalised vector. Defaults to 1e-9.
	Tol float64
	// MaxIter bounds the number of power iterations. Defaults to 200.
	MaxIter int
	// Workers is the parallelism degree; 0 means GOMAXPROCS. The computed
	// vector (and the iteration count) is bitwise identical for every
	// Workers setting: parallel reductions are combined over fixed-size
	// chunks whose boundaries depend only on the node count.
	Workers int
	// Extrapolate enables periodic Aitken Δ² extrapolation (Kamvar et al.
	// [12]), applying one extrapolation step every extrapolatePeriod
	// iterations.
	Extrapolate bool
}

// extrapolatePeriod is the number of power iterations between two Aitken
// steps when Options.Extrapolate is set.
const extrapolatePeriod = 10

// Result carries the computed vector and convergence diagnostics.
type Result struct {
	// Rank is the PageRank value per node, indexed by NodeID.
	Rank []float64
	// Iterations is the number of power iterations performed.
	Iterations int
	// Converged reports whether the L1 delta fell below Tol within MaxIter.
	Converged bool
	// Delta is the final L1 difference between successive iterates.
	Delta float64
}

// ErrBadOptions reports invalid configuration.
var ErrBadOptions = errors.New("pagerank: bad options")

func (o *Options) fill() error {
	if o.Jump == 0 {
		o.Jump = 0.15
	}
	if o.Jump <= 0 || o.Jump >= 1 {
		return fmt.Errorf("%w: Jump %g outside (0,1)", ErrBadOptions, o.Jump)
	}
	if o.Tol == 0 {
		o.Tol = 1e-9
	}
	if o.Tol < 0 {
		return fmt.Errorf("%w: negative Tol", ErrBadOptions)
	}
	if o.MaxIter == 0 {
		o.MaxIter = 200
	}
	if o.MaxIter < 1 {
		return fmt.Errorf("%w: MaxIter %d < 1", ErrBadOptions, o.MaxIter)
	}
	switch o.Variant {
	case VariantPaper, VariantStandard:
	default:
		return fmt.Errorf("%w: unknown variant %d", ErrBadOptions, o.Variant)
	}
	return nil
}

// scale returns the variant's total mass and its per-node jump term for an
// n-node graph: (n, Jump) for the paper's form, (1, Jump/n) for the
// stochastic one.
func (o *Options) scale(n int) (total, base float64) {
	if o.Variant == VariantPaper {
		return float64(n), o.Jump
	}
	return 1, o.Jump / float64(n)
}

// kernelState carries everything the sweep kernels read. The slices are
// fixed for the whole computation; the scalars (share, invSumCur,
// invSumNext) are updated between sweeps, never during one.
type kernelState struct {
	inOff  []uint32
	inFrom []graph.NodeID
	invOut []float64 // 1/outdeg, 0 for dangling nodes
	cur    []float64
	next   []float64
	curS   []float64 // cur[i]·invOut[i], the per-edge contribution of i
	nextS  []float64

	base   float64 // the jump term: Jump (paper) or Jump/n (standard)
	follow float64
	share  float64 // dangling mass / n: a dangling page links to every page

	invSumCur  float64
	invSumNext float64

	partSum   []float64 // per-chunk Σ next[i]
	partDang  []float64 // per-chunk Σ next[i] over dangling i
	partDelta []float64 // per-chunk L1 delta on normalised vectors
}

// sweepNext is the next-vector kernel: a flat loop over the CSR
// in-adjacency that computes next[i] for one chunk and records the chunk's
// partial next-sum and dangling-mass reductions — there is no per-node
// function call and no division in the inner loop. The inner loop gathers
// the pre-scaled curS[j] = cur[j]·invOut[j], a single 8-byte random read
// per edge; the scaled entry for the next iteration (nextS[i] =
// next[i]·invOut[i]) is produced by the same pass as a sequential store.
// invOut[i] == 0 exactly when i is dangling, so the kernel never touches
// the out-degrees. The short-row cases add a row's terms to each other
// before adding them to the dangling share, so the row sum associates
// differently from ComputeReference — which is why agreement with the
// reference is specified to 1e-12 on the normalised vectors rather than
// bitwise. (Determinism across Workers settings is unaffected: chunk
// boundaries and the in-chunk order are fixed for a given graph.)
func (k *kernelState) sweepNext(chunk, lo, hi int) {
	inOff, inFrom, curS, invOut := k.inOff, k.inFrom, k.curS, k.invOut
	next, nextS := k.next, k.nextS
	base, follow, share := k.base, k.follow, k.share
	s, dm := 0.0, 0.0
	for i := lo; i < hi; i++ {
		sum := share
		e, end := inOff[i], inOff[i+1]
		switch end - e {
		case 0:
		case 1:
			sum += curS[inFrom[e]]
		case 2:
			sum += curS[inFrom[e]] + curS[inFrom[e+1]]
		case 3:
			sum += curS[inFrom[e]] + curS[inFrom[e+1]] + curS[inFrom[e+2]]
		default:
			for ; e < end; e++ {
				sum += curS[inFrom[e]]
			}
		}
		v := base + follow*sum
		next[i] = v
		s += v
		inv := invOut[i]
		nextS[i] = v * inv
		if inv == 0 {
			dm += v
		}
	}
	k.partSum[chunk] = s
	k.partDang[chunk] = dm
}

// sweepDelta accumulates one chunk's share of the L1 distance between the
// sum-1 normalisations of cur and next.
func (k *kernelState) sweepDelta(chunk, lo, hi int) {
	cur, next := k.cur, k.next
	ic, in := k.invSumCur, k.invSumNext
	d := 0.0
	for i := lo; i < hi; i++ {
		d += math.Abs(next[i]*in - cur[i]*ic)
	}
	k.partDelta[chunk] = d
}

// sumChunks combines per-chunk partials in chunk order, so the result is
// independent of which worker computed which chunk.
func sumChunks(parts []float64) float64 {
	s := 0.0
	for _, v := range parts {
		s += v
	}
	return s
}

// Compute runs the PageRank power iteration over c.
func Compute(c *graph.CSR, opts Options) (*Result, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	return computeFrom(c, opts, nil)
}

// computeFrom runs the power iteration with an optional warm-start
// vector. opts must already be filled. When warm is nil the iteration
// starts from the variant's uniform vector with closed-form initial sums
// (the historical Compute path, bitwise unchanged); otherwise it starts
// from warm — whose ownership passes to computeFrom — which is how
// ComputeIncremental re-seeds the iteration from a previous fixed point.
func computeFrom(c *graph.CSR, opts Options, warm []float64) (*Result, error) {
	n := c.NumNodes()
	if n == 0 {
		return &Result{Rank: nil, Converged: true}, nil
	}
	if warm != nil && len(warm) != n {
		return nil, fmt.Errorf("%w: warm-start vector has %d entries for %d nodes", ErrBadOptions, len(warm), n)
	}

	inOff, inFrom := c.InLists()
	outDegs := c.OutDegrees()

	// Inverse out-degree table, precomputed at Freeze time: one division
	// per node there replaces one division per edge per iteration here.
	// Dangling nodes hold 0 — their mass flows through the dangling share,
	// never through invOut.
	invOut := c.InvOutDegrees()

	total, base := opts.scale(n)
	k := &kernelState{
		inOff:  inOff,
		inFrom: inFrom,
		invOut: invOut,
		base:   base,
		follow: 1 - opts.Jump,
	}

	cur := warm
	if cur == nil {
		cur = make([]float64, n)
	}
	next := make([]float64, n)
	curS := make([]float64, n)
	nextS := make([]float64, n)
	k.cur, k.next = cur, next
	k.curS, k.nextS = curS, nextS

	// sumCur, the dangling mass and the scaled vector curS are carried
	// across iterations (each sweep produces the next iteration's values as
	// fused reductions). The uniform start vector has closed-form sums;
	// recompute is needed for a warm start and after an extrapolation step
	// mutates cur.
	recompute := func() (sum, dmass float64) {
		for i, v := range cur {
			sum += v
			curS[i] = v * invOut[i]
			if outDegs[i] == 0 {
				dmass += v
			}
		}
		return sum, dmass
	}
	var sumCur, dmass float64
	if warm == nil {
		init := total / float64(n)
		ndang := 0
		for i := range cur {
			cur[i] = init
			curS[i] = init * invOut[i]
			if outDegs[i] == 0 {
				ndang++
			}
		}
		sumCur, dmass = init*float64(n), init*float64(ndang)
	} else {
		sumCur, dmass = recompute()
		// Rescale the warm start to the variant's total mass. The sum of
		// the iterates evolves autonomously (s' = Jump·total + (1-Jump)·s:
		// all mass is either passed along edges or redistributed) with
		// fixed point `total`, converging at the
		// damping factor — the slowest mode of the whole iteration. A warm
		// start with the wrong total would spend ~log(Tol)/log(1-Jump)
		// iterations just draining the excess mass; rescaling removes that
		// mode in one step and costs nothing (the final vector is rescaled
		// to `total` anyway).
		if sumCur > 0 {
			scale := total / sumCur
			for i := range cur {
				cur[i] *= scale
				curS[i] *= scale
			}
			dmass *= scale
			sumCur = total
		}
	}

	var prev1, prev2 []float64
	if opts.Extrapolate {
		prev1 = make([]float64, n)
		prev2 = make([]float64, n)
	}

	// Chunk boundaries depend only on the node count — never on the worker
	// count — and the per-chunk partials are folded in chunk order, so
	// Compute is bitwise deterministic across Workers settings (see
	// internal/par for the scheduling half of that argument).
	nc := (n + chunkSize - 1) / chunkSize
	k.partSum = make([]float64, nc)
	k.partDang = make([]float64, nc)
	k.partDelta = make([]float64, nc)
	run := func(sweep func(chunk, lo, hi int)) {
		par.Do(nc, opts.Workers, func(chunk int) {
			lo := chunk * chunkSize
			sweep(chunk, lo, min(lo+chunkSize, n))
		})
	}

	res := &Result{}
	for iter := 1; iter <= opts.MaxIter; iter++ {
		k.share = dmass / float64(n)

		// One parallel sweep computes next and, fused into the same pass,
		// the per-chunk next-sum and next-dangling-mass partials.
		run(k.sweepNext)
		sumNext := sumChunks(k.partSum)
		dmassNext := sumChunks(k.partDang)

		// Second parallel pass: L1 delta on the sum-1 normalised vectors.
		k.invSumCur = 1 / sumCur
		k.invSumNext = 1 / sumNext
		run(k.sweepDelta)
		delta := sumChunks(k.partDelta)

		res.Iterations = iter
		res.Delta = delta

		cur, next = next, cur
		curS, nextS = nextS, curS
		k.cur, k.next = cur, next
		k.curS, k.nextS = curS, nextS
		sumCur, dmass = sumNext, dmassNext
		if delta < opts.Tol {
			res.Converged = true
			break
		}

		if opts.Extrapolate && iter >= 3 && iter%extrapolatePeriod == 0 {
			aitken(cur, prev1, prev2)
			sumCur, dmass = recompute()
		}
		if opts.Extrapolate {
			prev2, prev1 = prev1, prev2
			copy(prev1, cur)
		}
	}

	// Rescale to the variant's convention (sum = total). sumCur is carried
	// from the last sweep's fused reduction, so no extra pass is needed.
	if sumCur > 0 {
		scale := total / sumCur
		for i := range cur {
			cur[i] *= scale
		}
	}
	res.Rank = cur
	return res, nil
}

// aitken applies componentwise Aitken Δ² extrapolation in place:
// x* = x2 - (x2-x1)² / (x2 - 2x1 + x0), skipping components with tiny
// denominators and clamping negatives (the true fixed point is positive).
func aitken(x2, x1, x0 []float64) {
	for i := range x2 {
		den := x2[i] - 2*x1[i] + x0[i]
		if math.Abs(den) < 1e-15 {
			continue
		}
		d := x2[i] - x1[i]
		v := x2[i] - d*d/den
		if v > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
			x2[i] = v
		}
	}
}

// chunkSize is the number of nodes per parallel work unit.
const chunkSize = 2048
