package loadgen

import (
	"fmt"
	"math"
	"sort"

	"pagequality/internal/randx"
)

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s — the standard model of query popularity (a handful of
// head queries dominate, a long tail follows). The cumulative table is
// accumulated in rank order, so the sampler is bitwise deterministic
// across builds.
type Zipf struct {
	cdf []float64 // cdf[i] = P(rank <= i), cdf[n-1] == 1 up to rounding
}

// NewZipf builds a sampler over n ranks with exponent s >= 0 (s = 0 is
// uniform).
func NewZipf(n int, s float64) (*Zipf, error) {
	if n < 1 {
		return nil, fmt.Errorf("loadgen: zipf needs n >= 1, got %d", n)
	}
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("loadgen: zipf exponent %g out of range", s)
	}
	cdf := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{cdf: cdf}, nil
}

// Rank maps a uniform variate u in [0,1) to its zipf rank: the first
// rank whose cumulative probability exceeds u.
func (z *Zipf) Rank(u float64) int {
	i := sort.Search(len(z.cdf), func(i int) bool { return z.cdf[i] > u })
	if i == len(z.cdf) { // u at or beyond the rounding edge of 1.0
		i = len(z.cdf) - 1
	}
	return i
}

// workloadKey salts the randx streams of the query workload so loadgen
// draws never collide with a simulation using the same seed.
var workloadKey = randx.Key("loadgen.workload")

// Workload is a replayable query stream: request i's query is a pure
// function of (seed, i), independent of scheduling, concurrency or
// which requests completed — the same property the corpus tick kernel
// gets from counter-based streams. Re-running a load test replays the
// identical query sequence.
type Workload struct {
	queries []string
	zipf    *Zipf
	seed    int64
}

// NewWorkload builds a zipf-distributed stream over the query list:
// queries[0] is the head of the distribution, later entries the tail.
func NewWorkload(queries []string, zipfS float64, seed int64) (*Workload, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("loadgen: workload needs at least one query")
	}
	z, err := NewZipf(len(queries), zipfS)
	if err != nil {
		return nil, err
	}
	return &Workload{queries: queries, zipf: z, seed: seed}, nil
}

// Query returns the i-th request's query string.
func (w *Workload) Query(i uint64) string {
	s := randx.NewStream(w.seed, workloadKey, i)
	return w.queries[w.zipf.Rank(randx.Float64(&s))]
}
