// Package ranking defines the pluggable ranking policies that close the
// paper's feedback loop: a search engine surfaces pages, users discover
// what is surfaced, and the resulting links feed the next ranking. The
// paper frames this ranking feedback loop as the experiment it proposed
// but could never run — how does the *choice of ranking function* shape
// long-run quality discovery and popularity bias?
//
// A Policy orders the relevant set of a query against a frozen search
// Context: an inverted index over the corpus texts plus per-document
// authority vectors (current PageRank and the live quality estimate).
// Three orderings are provided besides the no-search baseline:
//
//   - ByPageRank: the relevant set ordered purely by current PageRank —
//     the "rich get richer" status quo the paper criticises.
//   - ByQuality: ordered by the paper's Q(p) estimator (Equation 1
//     applied live between index refreshes, see quality.Live).
//   - Randomized: Pandey/Cho's partially randomized ranking ("Shuffling
//     a Stacked Deck"): the top (1-ε)·k slots go to the highest-PageRank
//     results, the remaining ε·k slots are drawn uniformly from the rest
//     of the relevant set — deliberately spending a small fraction of
//     result slots on exploration so new high-quality pages get a chance
//     to be seen.
//
// Every policy is deterministic. The ordered retrieval rides the frozen
// search kernel (bitwise identical at every worker count), and the
// Randomized draw comes from a randx counter stream keyed on
// (seed, query, tick) — so a searched corpus evolves bitwise identically
// no matter how the draw phase is scheduled.
package ranking

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"pagequality/internal/randx"
	"pagequality/internal/search"
)

// ErrBadPolicy reports an invalid policy configuration or Rank input.
var ErrBadPolicy = errors.New("ranking: bad policy")

// Context is the frozen state a policy ranks against. It is rebuilt
// periodically (the index refresh) while the underlying corpus keeps
// evolving — mirroring a real engine whose crawl lags the live Web.
type Context struct {
	// Index is the frozen inverted index over the corpus texts. Document
	// ids are dense and correspond to page NodeIDs at freeze time.
	Index *search.Index
	// PageRank is the current PageRank per document (len == NumDocs).
	PageRank []float64
	// Quality is the live Q(p) estimate per document (len == NumDocs).
	Quality []float64
	// Seed and Tick key the randomized policy's counter streams: the
	// draw for (seed, query, tick) is a pure function of the three.
	Seed int64
	Tick uint64
}

// validate checks the pieces a score-based policy needs and returns the
// selected score vector. Selection happens here, after the nil check, so
// a nil Context is an error rather than a panic.
func (c *Context) validate(sel func(*Context) []float64) ([]float64, error) {
	if c == nil || c.Index == nil {
		return nil, fmt.Errorf("%w: nil context or index", ErrBadPolicy)
	}
	scores := sel(c)
	if len(scores) != c.Index.NumDocs() {
		return nil, fmt.Errorf("%w: %d scores for %d docs", ErrBadPolicy, len(scores), c.Index.NumDocs())
	}
	return scores, nil
}

func pageRankScores(c *Context) []float64 { return c.PageRank }
func qualityScores(c *Context) []float64  { return c.Quality }

// Policy orders the documents relevant to a query. Implementations must
// be deterministic: the same (Context, query, k) always yields the same
// document list.
type Policy interface {
	// Name identifies the policy in reports and flags.
	Name() string
	// Rank returns up to k document ids for the query, best first. A nil
	// slice means the query retrieved nothing (not an error).
	Rank(ctx *Context, query string, k int) ([]int, error)
}

// None is the no-search baseline: discovery happens only through the
// popularity model, exactly as in the corpus without a search engine.
type None struct{}

// Name implements Policy.
func (None) Name() string { return "none" }

// Rank implements Policy: no results, ever.
func (None) Rank(*Context, string, int) ([]int, error) { return nil, nil }

// ByPageRank orders the relevant set purely by current PageRank
// (authority weight 1: relevance selects the set, authority orders it —
// the paper's Section-4 framing of a link-based engine).
type ByPageRank struct{}

// Name implements Policy.
func (ByPageRank) Name() string { return "pagerank" }

// Rank implements Policy.
func (ByPageRank) Rank(ctx *Context, query string, k int) ([]int, error) {
	if err := checkK(k); err != nil {
		return nil, err
	}
	scores, err := ctx.validate(pageRankScores)
	if err != nil {
		return nil, err
	}
	return rankByScore(ctx.Index, query, k, scores)
}

// ByQuality orders the relevant set by the live quality estimate — the
// paper's proposed unbiased ranking in the loop.
type ByQuality struct{}

// Name implements Policy.
func (ByQuality) Name() string { return "quality" }

// Rank implements Policy.
func (ByQuality) Rank(ctx *Context, query string, k int) ([]int, error) {
	if err := checkK(k); err != nil {
		return nil, err
	}
	scores, err := ctx.validate(qualityScores)
	if err != nil {
		return nil, err
	}
	return rankByScore(ctx.Index, query, k, scores)
}

// Randomized is Pandey/Cho's partially randomized ranking: of the k
// result slots, the top (1-ε)·k are filled in pure PageRank order and
// the remaining ε·k are drawn uniformly (without replacement) from the
// rest of the relevant set. Epsilon 0 degenerates to ByPageRank exactly;
// epsilon 1 shows every searcher a uniform sample of the relevant set.
type Randomized struct {
	// Epsilon is the randomized fraction of result slots, in [0,1].
	Epsilon float64
}

// Name implements Policy.
func (r Randomized) Name() string { return fmt.Sprintf("randomized-%.2g", r.Epsilon) }

// randomizedSalt keeps the policy's per-query streams disjoint from
// every other consumer of the corpus seed.
var randomizedSalt = randx.Key("ranking.randomized")

// Rank implements Policy.
func (r Randomized) Rank(ctx *Context, query string, k int) ([]int, error) {
	if err := checkK(k); err != nil {
		return nil, err
	}
	if r.Epsilon < 0 || r.Epsilon > 1 || math.IsNaN(r.Epsilon) {
		return nil, fmt.Errorf("%w: epsilon %g outside [0,1]", ErrBadPolicy, r.Epsilon)
	}
	scores, err := ctx.validate(pageRankScores)
	if err != nil {
		return nil, err
	}
	// Retrieve the whole relevant set in score order: the deterministic
	// slots are its prefix, the random slots sample its suffix.
	all, err := rankByScore(ctx.Index, query, ctx.Index.NumDocs(), scores)
	if err != nil || len(all) == 0 {
		return nil, err
	}
	if len(all) <= k {
		return all, nil // fewer relevant docs than slots: show them all
	}
	nRand := int(math.Round(r.Epsilon * float64(k)))
	if nRand == 0 {
		return all[:k], nil
	}
	// Partial Fisher–Yates over the remainder, in place (all is this
	// call's own slice), fed by the (seed, query, tick) counter stream:
	// bitwise reproducible at any worker count and fresh per tick, so
	// repeated identical queries explore differently over time but
	// identically across runs.
	rest := all[k-nRand:]
	st := randx.NewStream(ctx.Seed, randomizedSalt^randx.Key(query), ctx.Tick)
	for i := 0; i < nRand; i++ {
		j := i + randx.Intn(&st, len(rest)-i)
		rest[i], rest[j] = rest[j], rest[i]
	}
	return all[:k], nil
}

// rankByScore retrieves the query's relevant set ordered purely by the
// authority vector (weight 1), returning document ids best-first.
func rankByScore(ix *search.Index, query string, k int, scores []float64) ([]int, error) {
	hits, err := ix.Search(query, search.Options{
		TopK:            k,
		Authority:       scores,
		AuthorityWeight: 1,
	})
	if err != nil {
		return nil, err
	}
	if len(hits) == 0 {
		return nil, nil
	}
	docs := make([]int, len(hits))
	for i, h := range hits {
		docs[i] = h.Doc
	}
	return docs, nil
}

func checkK(k int) error {
	if k < 1 {
		return fmt.Errorf("%w: k=%d", ErrBadPolicy, k)
	}
	return nil
}

// Parse resolves a policy by flag name: "none", "pagerank", "quality"
// or "randomized" (which takes the epsilon argument).
func Parse(name string, epsilon float64) (Policy, error) {
	switch strings.ToLower(name) {
	case "none", "":
		return None{}, nil
	case "pagerank":
		return ByPageRank{}, nil
	case "quality":
		return ByQuality{}, nil
	case "randomized":
		if epsilon < 0 || epsilon > 1 || math.IsNaN(epsilon) {
			return nil, fmt.Errorf("%w: epsilon %g outside [0,1]", ErrBadPolicy, epsilon)
		}
		return Randomized{Epsilon: epsilon}, nil
	}
	return nil, fmt.Errorf("%w: unknown policy %q (none|pagerank|quality|randomized)", ErrBadPolicy, name)
}
