// Package webcorpus synthesises the multi-site Web corpus of the paper's
// experiment (Section 8) and evolves it over time. The paper crawled 154
// real Web sites four times between December 2002 and June 2003; this
// package substitutes a synthetic Web whose link evolution is *driven by
// the paper's own user-visitation model*: every page has a ground-truth
// intrinsic quality Q(p), visits arrive in proportion to current
// popularity (Proposition 1), visitors are uniformly random users
// (Proposition 2), and a user who discovers a page links to it with
// probability Q(p). On top of the clean model the corpus supports the
// §9.1 realism extensions the paper observed in its data: forgetting
// (decreasing popularity), link-churn noise (fluctuating PageRanks) and
// continuous page births.
//
// Because every page's true quality is known by construction, experiments
// can evaluate the estimator against ground truth — something the paper's
// real crawl could only approximate with future PageRank.
//
// The per-tick hot path is a sharded two-phase kernel (see DESIGN.md §7):
// a draw pass partitions the pages into fixed contiguous chunks processed
// by a Workers pool, each page drawing its visit/discovery/like/forget
// counts and then deciding its own link edits from its own counter-based
// randx.Stream keyed on (corpus seed, page id, tick), editing only its own
// in-list; a short serial replay then applies the out-list halves of
// those edits in page order. Because no draw depends on scheduling, the
// evolved corpus is bitwise identical for every Workers setting.
package webcorpus

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	"pagequality/internal/graph"
	"pagequality/internal/loadgen"
	"pagequality/internal/par"
	"pagequality/internal/randx"
	"pagequality/internal/ranking"
	"pagequality/internal/search"
	"pagequality/internal/snapshot"
)

// Config parameterises a corpus simulation. The zero value is invalid; use
// DefaultConfig as a starting point.
type Config struct {
	// Sites is the number of Web sites (the paper used 154).
	Sites int
	// InitialPagesPerSite is the mean number of pages per site at the
	// start of the burn-in period (actual counts vary ±50%).
	InitialPagesPerSite int
	// Users is n, the size of the simulated user population.
	Users int
	// VisitRate is r: a page with popularity P receives r·P visits per
	// week. r = Users gives the logistic growth rate (r/n)·Q = Q per week.
	VisitRate float64
	// LinkProb is the probability that a user who likes a page actually
	// publishes a link to it (thins the link graph without changing the
	// proportionality that the estimator relies on).
	LinkProb float64
	// SameSiteBias is the probability that a new link originates from a
	// page on the same site (intra-site links dominated the paper's
	// site-restricted crawl).
	SameSiteBias float64
	// QualityAlpha/QualityBeta shape the Beta(α,β) distribution from which
	// page qualities are drawn.
	QualityAlpha, QualityBeta float64
	// BirthRate is the number of new pages born per week across the corpus
	// (Poisson).
	BirthRate float64
	// ForgetRate is the §9.1 per-user forgetting rate per week (0 = the
	// paper's clean model).
	ForgetRate float64
	// NoiseRate adds link churn uncorrelated with quality: per week, a
	// Poisson(NoiseRate · pages) number of random single-link
	// additions/removals. This is what makes some PageRanks fluctuate the
	// way the paper observed.
	NoiseRate float64
	// DT is the simulation step in weeks (default 0.25).
	DT float64
	// BurnInWeeks ages the corpus before t=0 so that the crawl window
	// sees pages in all three life stages.
	BurnInWeeks float64
	// Seed makes the corpus deterministic.
	Seed int64
	// Workers is the parallelism of the per-tick draw pass and rankings;
	// 0 means GOMAXPROCS (mirroring pagerank.Options.Workers). The evolved
	// corpus is bitwise identical for every setting: each page draws from
	// its own counter-based stream and shared writes replay in page order.
	Workers int
	// Search configures the search-discovery channel (see search.go); the
	// zero value disables it and the corpus evolves exactly as before.
	Search SearchConfig
}

// DefaultConfig returns a laptop-scale configuration mirroring the paper's
// setup: 154 sites, pages in all life stages at the first crawl, and four
// snapshots on the Figure-4 timeline.
func DefaultConfig() Config {
	return Config{
		Sites:               154,
		InitialPagesPerSite: 10,
		Users:               20000,
		VisitRate:           20000,
		LinkProb:            0.02,
		SameSiteBias:        0.5,
		QualityAlpha:        2,
		QualityBeta:         3,
		BirthRate:           8,
		ForgetRate:          0.01,
		NoiseRate:           0.02,
		DT:                  defaultDT,
		BurnInWeeks:         30,
		Seed:                1,
	}
}

// ErrBadConfig reports invalid corpus configuration.
var ErrBadConfig = errors.New("webcorpus: bad config")

// defaultDT is the tick, in weeks, of a Config whose DT is 0.
const defaultDT = 0.25

func (c *Config) fill() error {
	if c.DT == 0 {
		c.DT = defaultDT
	}
	// Each float bound is written so that NaN and ±Inf fail it. A rate
	// bound caps a tick's Poisson mean at randx.MaxMean: visits to a page
	// (popularity <= 1), forgets on a page (awareness <= Users), births,
	// and noise events (at least one page a site; randx clamps a later,
	// larger corpus's draw).
	switch {
	case !(c.DT > 0 && c.DT <= math.MaxFloat64):
		return fmt.Errorf("%w: DT=%g", ErrBadConfig, c.DT)
	case c.Sites < 1:
		return fmt.Errorf("%w: Sites=%d", ErrBadConfig, c.Sites)
	case c.InitialPagesPerSite < 1:
		return fmt.Errorf("%w: InitialPagesPerSite=%d", ErrBadConfig, c.InitialPagesPerSite)
	case c.Users < 10:
		return fmt.Errorf("%w: Users=%d", ErrBadConfig, c.Users)
	case !(c.VisitRate > 0 && c.VisitRate*c.DT <= randx.MaxMean):
		return fmt.Errorf("%w: VisitRate=%g", ErrBadConfig, c.VisitRate)
	case !(c.LinkProb > 0 && c.LinkProb <= 1):
		return fmt.Errorf("%w: LinkProb=%g", ErrBadConfig, c.LinkProb)
	case !(c.SameSiteBias >= 0 && c.SameSiteBias <= 1):
		return fmt.Errorf("%w: SameSiteBias=%g", ErrBadConfig, c.SameSiteBias)
	case !(c.QualityAlpha > 0 && c.QualityAlpha <= math.MaxFloat64) ||
		!(c.QualityBeta > 0 && c.QualityBeta <= math.MaxFloat64):
		return fmt.Errorf("%w: quality Beta(%g,%g)", ErrBadConfig, c.QualityAlpha, c.QualityBeta)
	case !(c.BirthRate >= 0 && c.BirthRate*c.DT <= randx.MaxMean):
		return fmt.Errorf("%w: BirthRate=%g", ErrBadConfig, c.BirthRate)
	case !(c.ForgetRate >= 0 && c.ForgetRate*c.DT*float64(c.Users) <= randx.MaxMean):
		return fmt.Errorf("%w: ForgetRate=%g", ErrBadConfig, c.ForgetRate)
	case !(c.NoiseRate >= 0 && c.NoiseRate*c.DT*float64(c.Sites) <= randx.MaxMean):
		return fmt.Errorf("%w: NoiseRate=%g", ErrBadConfig, c.NoiseRate)
	case !(c.BurnInWeeks >= 0 && inReach(c.BurnInWeeks, c.DT)):
		return fmt.Errorf("%w: BurnInWeeks=%g", ErrBadConfig, c.BurnInWeeks)
	case c.Workers < 0:
		return fmt.Errorf("%w: Workers=%d", ErrBadConfig, c.Workers)
	}
	return c.Search.fill(c.DT)
}

// CheckHorizon returns an error unless a Sim whose tick is dt weeks (0
// for the default) may advance from week 0 to week t: t is neither NaN
// nor negative and at most maxTicks ticks ahead, past which AdvanceTo
// panics. dt itself is New's to check.
func CheckHorizon(t, dt float64) error {
	if dt == 0 {
		dt = defaultDT
	}
	if !(t >= 0 && inReach(t, dt)) {
		return fmt.Errorf("%w: horizon of %g weeks, want 0 to %d ticks of %g", ErrBadConfig, t, maxTicks, dt)
	}
	return nil
}

// Stream-key space of the corpus. Page ids are dense uint32 values, so
// every key >= 1<<32 is reserved for non-page streams.
const (
	keyTick   = 1 << 32 // per-tick serial events (churn, births)
	keySetup  = keyTick + 1
	keyInject = keyTick + 2 // BirthPage injections, tick = page sequence
	keySearch = keyTick + 3 // per-tick search sessions
)

// timeSlack absorbs FP rounding when comparing times derived from the
// exact tick clock against caller-supplied targets.
const timeSlack = 1e-9

// maxTicks bounds the ticks one advance may take — the burn-in, or a
// schedule's reach from the clock — so the count fits an int on every
// platform the module builds for, 32-bit ones included.
const maxTicks = math.MaxInt32

// inReach reports whether weeks is at most maxTicks ticks of dt; it is
// false for NaN weeks.
func inReach(weeks, dt float64) bool { return weeks/dt <= maxTicks }

// Sim is a running corpus simulation. The underlying graph only ever
// grows nodes (pages are never deleted, matching a crawler that keeps
// seeing the same URLs); links come and go.
type Sim struct {
	cfg Config
	g   *graph.Graph
	// Per-page state, indexed by NodeID.
	aware   []float64 // number of users aware of the page
	likes   []float64 // number of users who like the page (popularity × n)
	quality []float64 // cached Page.Quality (immutable per page)
	// sitePages[s] lists the pages of site s (link-source sampling).
	sitePages [][]graph.NodeID
	// firstDisc[p] is the tick at which page p was first discovered by a
	// user beyond its seed liker (either channel), -1 if never.
	firstDisc []int64
	time      float64
	tick      uint64 // ticks since construction; keys the per-tick streams
	pageSeq   int
	urlBuf    []byte

	// Draw-pass scratch: each chunk's link edits in page order.
	edits [][]linkEvent

	// Search-discovery channel state (see search.go); nil/zero when the
	// channel is disabled.
	workload                                        *loadgen.Workload
	ix                                              *search.Index   // grown by each refresh, never rebuilt
	lex                                             *search.Lexicon // pageVocab interned into ix
	refreshes, docsAnalysed                         int64
	rank                                            *ranking.Context
	prevPR                                          []float64 // PageRank vector of the previous refresh
	refreshTicks                                    uint64
	nextRefresh                                     uint64
	searchSeq                                       uint64 // workload request counter
	searchSessions, searchVisits, searchDiscoveries int64
}

// New builds the corpus, runs the burn-in, and leaves the simulation at
// t = 0 ready for the snapshot schedule.
func New(cfg Config) (*Sim, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:       cfg,
		g:         graph.New(cfg.Sites * cfg.InitialPagesPerSite * 2),
		sitePages: make([][]graph.NodeID, cfg.Sites),
		time:      -cfg.BurnInWeeks,
	}
	if err := s.initSearch(); err != nil {
		return nil, err
	}
	setup := randx.NewStream(cfg.Seed, keySetup, 0)
	for site := 0; site < cfg.Sites; site++ {
		n := cfg.InitialPagesPerSite/2 + randx.Intn(&setup, cfg.InitialPagesPerSite+1)
		if n < 1 {
			n = 1
		}
		for k := 0; k < n; k++ {
			// Stagger creation across the burn-in window so the corpus
			// contains pages of every age.
			created := -cfg.BurnInWeeks * randx.Float64(&setup)
			s.birthPage(&setup, site, created)
		}
	}
	// Burn-in: advance to t = 0.
	if cfg.BurnInWeeks > 0 {
		s.AdvanceTo(0)
	}
	return s, nil
}

// BirthPage inserts one page with a chosen quality on the given site at
// the current simulation time, returning its node id. It is the hook for
// scenario building (e.g. injecting a known high-quality newcomer);
// the regular birth process draws its quality from the Beta distribution
// instead.
func (s *Sim) BirthPage(site int, q float64) (graph.NodeID, error) {
	if site < 0 || site >= s.cfg.Sites {
		return graph.InvalidNode, fmt.Errorf("%w: site %d outside [0,%d)", ErrBadConfig, site, s.cfg.Sites)
	}
	if !(q > 0 && q <= 1) {
		return graph.InvalidNode, fmt.Errorf("%w: quality %g outside (0,1]", ErrBadConfig, q)
	}
	st := randx.NewStream(s.cfg.Seed, keyInject, uint64(s.pageSeq))
	return s.birthPageQ(&st, site, s.time, q), nil
}

// birthPage creates one page on the given site with a Beta-distributed
// quality and one seed user who likes it.
func (s *Sim) birthPage(src *randx.Stream, site int, created float64) {
	q := randx.Beta(src, s.cfg.QualityAlpha, s.cfg.QualityBeta)
	// Clamp away from 0 so the page can be visited at all (P0 = 1/n > 0).
	if q < 0.01 {
		q = 0.01
	}
	s.birthPageQ(src, site, created, q)
}

func (s *Sim) birthPageQ(src *randx.Stream, site int, created, q float64) graph.NodeID {
	s.urlBuf = appendPageURL(s.urlBuf[:0], site, s.pageSeq)
	s.pageSeq++
	id := s.g.MustAddPage(graph.Page{
		URL:     string(s.urlBuf),
		Site:    int32(site),
		Created: created,
		Quality: q,
	})
	s.aware = append(s.aware, 1)
	s.likes = append(s.likes, 1)
	s.quality = append(s.quality, q)
	s.firstDisc = append(s.firstDisc, -1)
	s.sitePages[site] = append(s.sitePages[site], id)
	// The seed liker publishes the page's first in-link.
	s.createLinkTo(src, id)
	return id
}

// appendPageURL builds "http://siteNNN.example/pageNNNNNN" without the
// fmt machinery — page births are on the tick hot path.
func appendPageURL(buf []byte, site, seq int) []byte {
	buf = append(buf, "http://site"...)
	buf = appendPadded(buf, site, 3)
	buf = append(buf, ".example/page"...)
	return appendPadded(buf, seq, 6)
}

// appendPadded appends v in decimal, zero-padded to at least width digits
// (matching fmt's %0*d for non-negative values).
func appendPadded(buf []byte, v, width int) []byte {
	digits := 1
	for x := v; x >= 10; x /= 10 {
		digits++
	}
	for ; digits < width; digits++ {
		buf = append(buf, '0')
	}
	return strconv.AppendInt(buf, int64(v), 10)
}

// linkSource draws up to eight sources for a new in-link of p with the
// configured same-site bias and returns the first that is neither p nor
// linked; InvalidNode if all fail (the like still counts — the user simply
// linked to a page that already linked there). Both link paths use it.
func (s *Sim) linkSource(src *randx.Stream, p graph.NodeID, linked func(from graph.NodeID) bool) graph.NodeID {
	cand := s.sitePages[s.g.Page(p).Site]
	numNodes := s.g.NumNodes()
	for attempt := 0; attempt < 8; attempt++ {
		var from graph.NodeID
		if randx.Float64(src) < s.cfg.SameSiteBias && len(cand) > 1 {
			from = cand[randx.Intn(src, len(cand))]
		} else {
			from = graph.NodeID(randx.Intn(src, numNodes))
		}
		if from != p && !linked(from) {
			return from
		}
	}
	return graph.InvalidNode
}

// createLinkTo adds one in-link to page p from a source linkSource draws.
func (s *Sim) createLinkTo(src *randx.Stream, p graph.NodeID) {
	if from := s.linkSource(src, p, func(from graph.NodeID) bool { return s.g.HasLink(from, p) }); from != graph.InvalidNode {
		s.g.AddLink(from, p)
	}
}

// removeLinkTo removes one random in-link of p, if any.
func (s *Sim) removeLinkTo(src *randx.Stream, p graph.NodeID) {
	if in := s.g.InLinks(p); len(in) > 0 {
		s.g.RemoveLink(in[randx.Intn(src, len(in))], p)
	}
}

// Time returns the current simulation time in weeks (0 = first crawl).
func (s *Sim) Time() float64 { return s.time }

// NumPages returns the current page count.
func (s *Sim) NumPages() int { return s.g.NumNodes() }

// NumLinks returns the current link count.
func (s *Sim) NumLinks() int { return s.g.NumEdges() }

// Popularity returns the current popularity P(p,t) = likes/n of page p.
func (s *Sim) Popularity(p graph.NodeID) float64 {
	return s.likes[p] / float64(s.cfg.Users)
}

// Awareness returns A(p,t) = aware/n of page p (Definition 4).
func (s *Sim) Awareness(p graph.NodeID) float64 {
	return s.aware[p] / float64(s.cfg.Users)
}

// Graph exposes the live graph for inspection. Callers must not mutate it;
// use SnapshotNow for a stable copy.
func (s *Sim) Graph() *graph.Graph { return s.g }

// drawChunk is the fixed shard width of the draw pass. Chunk boundaries
// depend only on the page count, never on the worker count, which is one
// half of the bitwise worker-invariance argument (the other half is the
// per-page streams). Older pages carry most of the events, so the chunks
// are narrow enough that the last ones do not leave a worker idle.
const drawChunk = 256

// linkEvent is one link edit of the draw pass: from → to added or removed.
type linkEvent struct {
	from, to graph.NodeID
	add      bool
}

// linkMarks holds one page's in-list as stamps: stamp[from] == epoch
// exactly when from is in it. A new epoch per page replaces clearing.
type linkMarks struct {
	stamp []uint32
	epoch uint32
}

// markPool holds the idle mark arrays; no more live than busy workers.
var markPool = sync.Pool{New: func() any { return new(linkMarks) }}

// mark stamps in, the in-list of one page among n.
func (m *linkMarks) mark(in []graph.NodeID, n int) {
	if m.epoch++; len(m.stamp) < n || m.epoch == 0 {
		// Headroom for births; a wrapped epoch could match stale stamps.
		m.stamp, m.epoch = make([]uint32, n+n/2), 1
	}
	for _, from := range in {
		m.stamp[from] = m.epoch
	}
}

// Step advances the simulation by one DT tick using the two-phase kernel:
// a (possibly parallel) draw pass computes every page's awareness/like
// deltas and decides its link edits from its own counter-based stream,
// then a serial replay applies the edits' out-list halves in page order,
// followed by the tick-level churn, birth and search events.
func (s *Sim) Step() {
	cfg := &s.cfg
	nPages := s.g.NumNodes()
	chunks := (nPages + drawChunk - 1) / drawChunk
	for len(s.edits) < chunks {
		s.edits = append(s.edits, nil)
	}

	// (1) Draw pass, fanned out over fixed contiguous chunks. Workers own
	// disjoint page ranges, so the per-page slices and in-lists are
	// written race-free; no out-list is written.
	par.Do(chunks, cfg.Workers, func(c int) {
		m := markPool.Get().(*linkMarks)
		lo := c * drawChunk
		s.edits[c] = s.drawRange(lo, min(lo+drawChunk, nPages), m, s.edits[c][:0])
		markPool.Put(m)
	})

	// (2) Replay: serial, chunk by chunk, so the out-lists see the edits
	// in page order and end as the one-edit-at-a-time loop left them.
	for _, edits := range s.edits[:chunks] {
		for _, e := range edits {
			s.g.CommitOut(e.from, e.to, e.add)
		}
	}

	// Tick-level events, drawn from the tick stream: uncorrelated link
	// churn (fluctuation noise), then page births.
	tst := randx.NewStream(cfg.Seed, keyTick, s.tick)
	if cfg.NoiseRate > 0 {
		events := randx.Poisson(&tst, cfg.NoiseRate*float64(nPages)*cfg.DT)
		for k := 0; k < events; k++ {
			p := graph.NodeID(randx.Intn(&tst, s.g.NumNodes()))
			if randx.Float64(&tst) < 0.5 {
				s.createLinkTo(&tst, p)
			} else {
				s.removeLinkTo(&tst, p)
			}
		}
	}
	if cfg.BirthRate > 0 {
		births := randx.Poisson(&tst, cfg.BirthRate*cfg.DT)
		for k := 0; k < births; k++ {
			site := randx.Intn(&tst, cfg.Sites)
			s.birthPage(&tst, site, s.time)
		}
	}
	// Search sessions: the third tick-level event, after churn and births
	// so newborn pages can be crawled at the very next refresh.
	if cfg.Search.enabled() {
		s.stepSearch()
	}
	// The clock is derived, not accumulated: tick counts stay exact at any
	// horizon instead of drifting by one ulp per step.
	s.tick++
	s.time = float64(float64(s.tick)*cfg.DT) - cfg.BurnInWeeks
}

// drawRange runs the draw pass for pages [lo, hi): visits, discoveries,
// likes and forgetting, then the link edits it appends to edits. Every
// draw comes from the page's own (seed, page, tick) stream, so the results
// are independent of how ranges map to workers.
func (s *Sim) drawRange(lo, hi int, m *linkMarks, edits []linkEvent) []linkEvent {
	cfg := &s.cfg
	n := float64(cfg.Users)
	aware, likes, quality := s.aware, s.likes, s.quality
	visitRate := cfg.VisitRate * cfg.DT
	forgetRate := cfg.ForgetRate * cfg.DT
	for p := lo; p < hi; p++ {
		st := randx.NewStream(cfg.Seed, uint64(p), s.tick)
		var adds, dels int32
		if pop := likes[p] / n; pop > 0 {
			if visits := randx.Poisson(&st, visitRate*pop); visits > 0 {
				unawareFrac := 1 - aware[p]/n
				if unawareFrac < 0 {
					unawareFrac = 0
				}
				// Each visit lands on an unaware user with prob unawareFrac
				// (random-visit hypothesis); thin the Poisson instead of
				// looping when visit counts are large. The normal
				// approximations can overshoot the finite user pool, so
				// clamp discoveries to the remaining unaware users and
				// likes to the aware count — Popularity() stays <= 1.
				discoveries := randx.Binomial(&st, visits, unawareFrac)
				if room := int(n - aware[p]); discoveries > room {
					discoveries = room
				}
				if discoveries > 0 {
					aware[p] += float64(discoveries)
					if s.firstDisc[p] < 0 {
						// Per-page slot in a worker-disjoint range: race-free.
						s.firstDisc[p] = int64(s.tick)
					}
					newLikes := randx.Binomial(&st, discoveries, quality[p])
					if room := int(aware[p] - likes[p]); newLikes > room {
						newLikes = room
					}
					likes[p] += float64(newLikes)
					adds = int32(randx.Binomial(&st, newLikes, cfg.LinkProb))
				}
			}
		}
		// Forgetting (§9.1): aware users forget; forgetting likers
		// withdraw their links.
		if forgetRate > 0 && aware[p] > 1 {
			forgets := randx.Poisson(&st, forgetRate*aware[p])
			for k := 0; k < forgets && aware[p] > 1; k++ {
				likerFrac := likes[p] / aware[p]
				aware[p]--
				if randx.Float64(&st) < likerFrac && likes[p] > 1 {
					likes[p]--
					if randx.Float64(&st) < cfg.LinkProb {
						dels++
					}
				}
			}
		}
		if adds > 0 || dels > 0 {
			edits = s.decideLinks(&st, graph.NodeID(p), adds, dels, m, edits)
		}
	}
	return edits
}

// decideLinks appends p's adds and dels to edits, drawing as createLinkTo
// and removeLinkTo would, and applies their in-halves. Only p's edits
// change in[p] during the pass and in-lists mirror out-lists at tick start,
// so p's newest edit naming from, else p's tick-start in-list, marked in m
// before p's first edit, says in O(1) if from → p exists.
func (s *Sim) decideLinks(st *randx.Stream, p graph.NodeID, adds, dels int32, m *linkMarks, edits []linkEvent) []linkEvent {
	own := len(edits)
	if adds > 0 {
		m.mark(s.g.InLinks(p), s.g.NumNodes())
	}
	linked := func(from graph.NodeID) bool {
		for i := len(edits) - 1; i >= own; i-- {
			if edits[i].from == from {
				return edits[i].add
			}
		}
		return m.stamp[from] == m.epoch
	}
	for ; adds > 0; adds-- {
		if from := s.linkSource(st, p, linked); from != graph.InvalidNode {
			s.g.AddInLink(from, p)
			edits = append(edits, linkEvent{from, p, true})
		}
	}
	for ; dels > 0; dels-- {
		if n := s.g.InDegree(p); n > 0 {
			edits = append(edits, linkEvent{s.g.RemoveInLinkAt(p, randx.Intn(st, n)), p, false})
		}
	}
	return edits
}

// AdvanceTo steps the simulation until the clock reaches t. The step
// count is computed up front from the drift-free tick clock, so the
// number of ticks taken to reach any horizon is exactly
// ceil((t - time)/DT) regardless of how the horizon is split across
// calls. It panics when t is NaN or more than maxTicks ticks ahead; a
// validated Config and Schedule never ask for that.
func (s *Sim) AdvanceTo(t float64) {
	steps := math.Ceil((t - s.time) / s.cfg.DT * (1 - timeSlack))
	if !(steps <= maxTicks) {
		panic(fmt.Sprintf("webcorpus: AdvanceTo(%g) is %g ticks ahead, past the bound of %d", t, steps, maxTicks))
	}
	for i := 0; float64(i) < steps; i++ {
		s.Step()
	}
}

// SnapshotNow captures a deep copy of the current graph as a crawl
// snapshot.
func (s *Sim) SnapshotNow(label string) snapshot.Snapshot {
	return snapshot.Snapshot{Label: label, Time: s.time, Graph: s.g.Clone()}
}

// RunSchedule advances through the schedule, capturing one snapshot per
// entry. Times are in weeks relative to t = 0 and must be non-decreasing,
// not in the past, and at most maxTicks ticks ahead.
func (s *Sim) RunSchedule(sched Schedule) ([]snapshot.Snapshot, error) {
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	if sched.Times[0] < s.time-1e-9 {
		return nil, fmt.Errorf("%w: schedule starts at %g but simulation is at %g",
			ErrBadConfig, sched.Times[0], s.time)
	}
	if last := len(sched.Times) - 1; !inReach(sched.Times[last]-s.time, s.cfg.DT) {
		return nil, fmt.Errorf("%w: Times[%d]=%g is more than %d ticks ahead of week %g",
			ErrBadConfig, last, sched.Times[last], maxTicks, s.time)
	}
	snaps := make([]snapshot.Snapshot, 0, len(sched.Times))
	for i, t := range sched.Times {
		s.AdvanceTo(t)
		snaps = append(snaps, s.SnapshotNow(sched.Labels[i]))
	}
	return snaps, nil
}

// TrueQualities returns the ground-truth quality for the given URLs
// (aligned page order), enabling evaluation against truth rather than
// future PageRank.
func (s *Sim) TrueQualities(urls []string) ([]float64, error) {
	out := make([]float64, len(urls))
	for i, u := range urls {
		id, ok := s.g.Lookup(u)
		if !ok {
			return nil, fmt.Errorf("webcorpus: unknown URL %q", u)
		}
		out[i] = s.g.Page(id).Quality
	}
	return out, nil
}
