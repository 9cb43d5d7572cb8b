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
// a draw phase partitions the pages into fixed contiguous chunks processed
// by a Workers pool, each page drawing its visit/discovery/like/forget
// counts from its own counter-based randx.Stream keyed on (corpus seed,
// page id, tick); a serial apply phase then consumes the per-page event
// counts in page order to mutate the shared graph. Because no draw depends
// on scheduling, the evolved corpus is bitwise identical for every Workers
// setting.
package webcorpus

import (
	"errors"
	"fmt"
	"math"
	"strconv"

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
	// Workers is the parallelism of the per-tick draw phase; 0 means
	// GOMAXPROCS (mirroring pagerank.Options.Workers). The evolved corpus
	// is bitwise identical for every setting: each page draws from its own
	// counter-based stream, so no result depends on scheduling.
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
		DT:                  0.25,
		BurnInWeeks:         30,
		Seed:                1,
	}
}

// ErrBadConfig reports invalid corpus configuration.
var ErrBadConfig = errors.New("webcorpus: bad config")

func (c *Config) fill() error {
	if c.DT == 0 {
		c.DT = 0.25
	}
	switch {
	case c.Sites < 1:
		return fmt.Errorf("%w: Sites=%d", ErrBadConfig, c.Sites)
	case c.InitialPagesPerSite < 1:
		return fmt.Errorf("%w: InitialPagesPerSite=%d", ErrBadConfig, c.InitialPagesPerSite)
	case c.Users < 10:
		return fmt.Errorf("%w: Users=%d", ErrBadConfig, c.Users)
	case c.VisitRate <= 0:
		return fmt.Errorf("%w: VisitRate=%g", ErrBadConfig, c.VisitRate)
	case c.LinkProb <= 0 || c.LinkProb > 1:
		return fmt.Errorf("%w: LinkProb=%g", ErrBadConfig, c.LinkProb)
	case c.SameSiteBias < 0 || c.SameSiteBias > 1:
		return fmt.Errorf("%w: SameSiteBias=%g", ErrBadConfig, c.SameSiteBias)
	case c.QualityAlpha <= 0 || c.QualityBeta <= 0:
		return fmt.Errorf("%w: quality Beta(%g,%g)", ErrBadConfig, c.QualityAlpha, c.QualityBeta)
	case c.BirthRate < 0:
		return fmt.Errorf("%w: BirthRate=%g", ErrBadConfig, c.BirthRate)
	case c.ForgetRate < 0:
		return fmt.Errorf("%w: ForgetRate=%g", ErrBadConfig, c.ForgetRate)
	case c.NoiseRate < 0:
		return fmt.Errorf("%w: NoiseRate=%g", ErrBadConfig, c.NoiseRate)
	case c.DT <= 0:
		return fmt.Errorf("%w: DT=%g", ErrBadConfig, c.DT)
	case c.BurnInWeeks < 0:
		return fmt.Errorf("%w: BurnInWeeks=%g", ErrBadConfig, c.BurnInWeeks)
	case c.Workers < 0:
		return fmt.Errorf("%w: Workers=%d", ErrBadConfig, c.Workers)
	}
	return c.Search.fill()
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

	// Draw-phase scratch, indexed by NodeID and regrown as pages are born.
	linkAdds []int32        // links to create toward the page this tick
	linkDels []int32        // links to withdraw from the page this tick
	streams  []randx.Stream // per-page stream state after the draw phase

	// Search-discovery channel state (see search.go); nil/zero when the
	// channel is disabled.
	workload                                        *loadgen.Workload
	ix                                              *search.Index // grown by each refresh, never rebuilt
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
func (s *Sim) birthPage(src randx.Source, site int, created float64) graph.NodeID {
	q := randx.Beta(src, s.cfg.QualityAlpha, s.cfg.QualityBeta)
	// Clamp away from 0 so the page can be visited at all (P0 = 1/n > 0).
	if q < 0.01 {
		q = 0.01
	}
	return s.birthPageQ(src, site, created, q)
}

func (s *Sim) birthPageQ(src randx.Source, site int, created, q float64) graph.NodeID {
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

// createLinkTo adds one in-link to page p from a source chosen with the
// configured same-site bias; duplicates and self-links are silently
// skipped after a few attempts (the like still counts — the user simply
// linked to a page that already linked there).
func (s *Sim) createLinkTo(src randx.Source, p graph.NodeID) {
	site := int(s.g.Page(p).Site)
	numNodes := s.g.NumNodes()
	cand := s.sitePages[site]
	for attempt := 0; attempt < 8; attempt++ {
		var from graph.NodeID
		if randx.Float64(src) < s.cfg.SameSiteBias && len(cand) > 1 {
			from = cand[randx.Intn(src, len(cand))]
		} else {
			from = graph.NodeID(randx.Intn(src, numNodes))
		}
		if from == p {
			continue
		}
		if s.g.AddLink(from, p) {
			return
		}
	}
}

// removeLinkTo removes one random in-link of p, if any.
func (s *Sim) removeLinkTo(src randx.Source, p graph.NodeID) {
	in := s.g.InLinks(p)
	if len(in) == 0 {
		return
	}
	from := in[randx.Intn(src, len(in))]
	s.g.RemoveLink(from, p)
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

// drawChunk is the fixed shard width of the draw phase. Chunk boundaries
// depend only on the page count, never on the worker count, which is one
// half of the bitwise worker-invariance argument (the other half is the
// per-page streams).
const drawChunk = 1024

// Step advances the simulation by one DT tick using the two-phase kernel:
// a (possibly parallel) draw phase computes every page's awareness/like
// deltas and link event counts from its own counter-based stream, then a
// serial apply phase mutates the graph in page order, followed by the
// tick-level churn and birth events.
func (s *Sim) Step() {
	cfg := &s.cfg
	nPages := s.g.NumNodes()
	s.growScratch(nPages)

	// (1) Draw phase, fanned out over fixed contiguous chunks. Workers own
	// disjoint page ranges, so the per-page slices are written race-free;
	// the graph is not touched.
	par.Do((nPages+drawChunk-1)/drawChunk, cfg.Workers, func(c int) {
		lo := c * drawChunk
		s.drawRange(lo, min(lo+drawChunk, nPages))
	})

	// (2) Apply phase: serial, in page order, continuing each page's
	// stream where the draw phase left it.
	for p := 0; p < nPages; p++ {
		adds, dels := s.linkAdds[p], s.linkDels[p]
		if adds == 0 && dels == 0 {
			continue
		}
		st := &s.streams[p]
		for k := int32(0); k < adds; k++ {
			s.createLinkTo(st, graph.NodeID(p))
		}
		for k := int32(0); k < dels; k++ {
			s.removeLinkTo(st, graph.NodeID(p))
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
	s.time = float64(s.tick)*cfg.DT - cfg.BurnInWeeks
}

// growScratch sizes the per-page scratch slices for this tick, with 50%
// headroom so the steady trickle of births doesn't reallocate every tick.
func (s *Sim) growScratch(nPages int) {
	if cap(s.linkAdds) < nPages {
		newCap := nPages + nPages/2
		s.linkAdds = make([]int32, nPages, newCap)
		s.linkDels = make([]int32, nPages, newCap)
		s.streams = make([]randx.Stream, nPages, newCap)
	} else {
		s.linkAdds = s.linkAdds[:nPages]
		s.linkDels = s.linkDels[:nPages]
		s.streams = s.streams[:nPages]
	}
}

// drawRange runs the draw phase for pages [lo, hi): visits, discoveries,
// likes and forgetting, accumulating only per-page state plus link event
// counts. Every draw comes from the page's own (seed, page, tick) stream,
// so the results are independent of how ranges map to workers.
func (s *Sim) drawRange(lo, hi int) {
	cfg := &s.cfg
	n := float64(cfg.Users)
	aware, likes, quality := s.aware, s.likes, s.quality
	visitRate := cfg.VisitRate * cfg.DT
	forgetRate := cfg.ForgetRate * cfg.DT
	for p := lo; p < hi; p++ {
		// The stream lives in the per-page slice from the start: taking the
		// address of a stack local here would escape it through the generic
		// sampler calls, costing one heap allocation per page per tick.
		s.streams[p] = randx.NewStream(cfg.Seed, uint64(p), s.tick)
		st := &s.streams[p]
		var adds, dels int32
		if pop := likes[p] / n; pop > 0 {
			if visits := randx.Poisson(st, visitRate*pop); visits > 0 {
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
				discoveries := randx.Binomial(st, visits, unawareFrac)
				if room := int(n - aware[p]); discoveries > room {
					discoveries = room
				}
				if discoveries > 0 {
					aware[p] += float64(discoveries)
					if s.firstDisc[p] < 0 {
						// Per-page slot in a worker-disjoint range: race-free.
						s.firstDisc[p] = int64(s.tick)
					}
					newLikes := randx.Binomial(st, discoveries, quality[p])
					if room := int(aware[p] - likes[p]); newLikes > room {
						newLikes = room
					}
					likes[p] += float64(newLikes)
					adds = int32(randx.Binomial(st, newLikes, cfg.LinkProb))
				}
			}
		}
		// Forgetting (§9.1): aware users forget; forgetting likers
		// withdraw their links.
		if forgetRate > 0 && aware[p] > 1 {
			forgets := randx.Poisson(st, forgetRate*aware[p])
			for k := 0; k < forgets && aware[p] > 1; k++ {
				likerFrac := likes[p] / aware[p]
				aware[p]--
				if randx.Float64(st) < likerFrac && likes[p] > 1 {
					likes[p]--
					if randx.Float64(st) < cfg.LinkProb {
						dels++
					}
				}
			}
		}
		s.linkAdds[p], s.linkDels[p] = adds, dels
	}
}

// AdvanceTo steps the simulation until the clock reaches t. The step
// count is computed up front from the drift-free tick clock, so the
// number of ticks taken to reach any horizon is exactly
// ceil((t - time)/DT) regardless of how the horizon is split across
// calls.
func (s *Sim) AdvanceTo(t float64) {
	steps := int(math.Ceil((t - s.time) / s.cfg.DT * (1 - timeSlack)))
	for i := 0; i < steps; i++ {
		s.Step()
	}
}

// SnapshotNow captures a deep copy of the current graph as a crawl
// snapshot.
func (s *Sim) SnapshotNow(label string) snapshot.Snapshot {
	return snapshot.Snapshot{Label: label, Time: s.time, Graph: s.g.Clone()}
}

// RunSchedule advances through the schedule, capturing one snapshot per
// entry. Times are in weeks relative to t = 0 and must be non-decreasing
// and not in the past.
func (s *Sim) RunSchedule(sched Schedule) ([]snapshot.Snapshot, error) {
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	if len(sched.Times) > 0 && sched.Times[0] < s.time-1e-9 {
		return nil, fmt.Errorf("%w: schedule starts at %g but simulation is at %g",
			ErrBadConfig, sched.Times[0], s.time)
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
