package webcorpus

// This file is the search-discovery channel: the feedback loop the paper
// argues shapes the real Web but could never experiment on. Alongside the
// popularity channel (visits ∝ current popularity, Proposition 1), users
// also discover pages through a search engine: per tick a Poisson number
// of query sessions issue zipf-distributed queries over the corpus topic
// vocabulary, the active ranking.Policy orders the relevant set against a
// periodically refrozen index + authority scores, and each session visits
// the top-k results, converting to aware/like/link with exactly the
// organic-visit Bernoulli draws. Because ranking feeds the link graph and
// the link graph feeds the next ranking, the loop closes: the policy
// choice (pure PageRank, the paper's Q(p), or Pandey/Cho's partially
// randomized ranking) now shapes which pages get rich.
//
// Determinism: sessions are tick-level events like births and churn,
// counted and visited serially from their own (seed, keySearch, tick)
// stream; queries come from the loadgen workload stream (pure in (seed,
// session index)); each ranking, run in parallel into its session's
// slot, is pure in (frozen context, query, tick); and the refresh
// pipeline is bitwise worker-count invariant. A searched corpus
// therefore evolves bitwise identically at every Workers setting.

import (
	"fmt"
	"math"

	"pagequality/internal/graph"
	"pagequality/internal/loadgen"
	"pagequality/internal/pagerank"
	"pagequality/internal/par"
	"pagequality/internal/quality"
	"pagequality/internal/randx"
	"pagequality/internal/ranking"
	"pagequality/internal/search"
)

// SearchConfig parameterises the search-discovery channel. The zero value
// disables search entirely (SessionsPerWeek == 0), preserving the plain
// popularity-only corpus bit for bit.
type SearchConfig struct {
	// SessionsPerWeek is the Poisson mean number of query sessions per
	// week across the user population; 0 disables the channel.
	SessionsPerWeek float64
	// TopK is how many results each session visits (default 10).
	TopK int
	// Policy is the active ranking policy (default ranking.ByPageRank).
	// A tick's sessions call its Rank concurrently on one Context.
	Policy ranking.Policy
}

// The channel's fixed parameters. The search era begins at t = 0, the
// first crawl: sessions never fire during the burn-in, so the burn-in
// corpus is identical across policies — the "one seed set" every policy
// comparison starts from.
const (
	// queryZipfS is the zipf exponent of the query distribution over the
	// vocabulary: head topics dominate as on the real Web.
	queryZipfS = 1.0
	// queryWordsPerTopic topic words per topic follow the topic names in
	// the vocabulary; they form the zipf tail.
	queryWordsPerTopic = 5
	// refreshWeeks is the cadence at which the engine re-crawls. Pages
	// born since the last refresh are invisible to search until the next
	// one — the crawler lag of a real engine.
	refreshWeeks = 1.0
)

// liveEstimator configures the live Q(p) computed at each refresh for the
// quality policy.
var liveEstimator = quality.CorpusConfig()

// enabled reports whether the channel is on at all.
func (sc *SearchConfig) enabled() bool { return sc.SessionsPerWeek > 0 }

// fill checks the channel against the corpus step dt, which sets the
// mean of a tick's session count.
func (sc *SearchConfig) fill(dt float64) error {
	if !(sc.SessionsPerWeek >= 0 && sc.SessionsPerWeek*dt <= randx.MaxMean) {
		return fmt.Errorf("%w: SessionsPerWeek=%g", ErrBadConfig, sc.SessionsPerWeek)
	}
	if !sc.enabled() {
		return nil
	}
	if sc.TopK == 0 {
		sc.TopK = 10
	}
	if sc.Policy == nil {
		sc.Policy = ranking.ByPageRank{}
	}
	if sc.TopK < 1 {
		return fmt.Errorf("%w: search TopK=%d", ErrBadConfig, sc.TopK)
	}
	return nil
}

// QueryVocab builds the deterministic query vocabulary the search channel
// draws from: the topic names of the sites in use (the zipf head), then
// wordsPerTopic topic words per topic (the tail), in fixed order.
func (s *Sim) QueryVocab(wordsPerTopic int) []string {
	nTopics := s.cfg.Sites
	if nTopics > len(topics) {
		nTopics = len(topics)
	}
	vocab := make([]string, 0, nTopics*(1+wordsPerTopic))
	for t := 0; t < nTopics; t++ {
		vocab = append(vocab, topics[t])
	}
	for w := 0; w < wordsPerTopic; w++ {
		for t := 0; t < nTopics; t++ {
			vocab = append(vocab, pageVocab[topicSlot(t)+w%topicVocabSize])
		}
	}
	return vocab
}

// initSearch prepares the channel at construction time. Called by New
// after validation, before the burn-in.
func (s *Sim) initSearch() error {
	sc := &s.cfg.Search
	if !sc.enabled() {
		return nil
	}
	wl, err := loadgen.NewWorkload(s.QueryVocab(queryWordsPerTopic), queryZipfS, s.cfg.Seed)
	if err != nil {
		return fmt.Errorf("%w: search workload: %v", ErrBadConfig, err)
	}
	s.workload = wl
	s.ix = search.NewIndex()
	s.lex = s.ix.Lexicon(pageVocab)
	s.refreshTicks = uint64(math.Round(refreshWeeks / s.cfg.DT))
	if s.refreshTicks < 1 {
		s.refreshTicks = 1
	}
	return nil
}

// refreshSearch refreezes the engine's view of the corpus: index the
// pages born since the last refresh, compute PageRank on the frozen
// graph, and derive the live quality estimate from the previous
// refresh's vector (Equation 1). Pages are never deleted and their words
// are pure, so the grown index freezes to the layout a rebuild from
// AllTexts would have (TestRefreshIncrementalMatchesRebuild). The new
// pages are analysed in parallel, each into its own slot, from their
// drawn words, not their rendered text; then the index half (add
// in id order, freeze) and the PageRank half (freeze the graph, solve)
// share no data and run side by side, inline in that order at one
// worker. Every stage is bitwise worker-count invariant.
func (s *Sim) refreshSearch() {
	first := s.ix.NumDocs()
	docs := make([]search.Analyzed, s.g.NumNodes()-first)
	par.Do(len(docs), s.cfg.Workers, func(i int) {
		docs[i] = s.lex.Analyze(s.pageWords(graph.NodeID(first+i), TextOptions{}))
	})
	var pr *pagerank.Result
	var err error
	par.Do(2, s.cfg.Workers, func(half int) {
		if half == 0 {
			for _, a := range docs {
				s.ix.AddAnalyzed(a)
			}
			s.ix.Freeze()
			return
		}
		pr, err = pagerank.Compute(graph.Freeze(s.g), pagerank.Options{Variant: pagerank.VariantPaper, Workers: s.cfg.Workers})
	})
	s.docsAnalysed += int64(len(docs))
	s.refreshes++
	if err != nil {
		// Options are fixed and valid and the graph is well-formed by
		// construction; a failure here is a programming error.
		panic("webcorpus: refresh pagerank: " + err.Error())
	}
	// Equation 1 over the two-snapshot window {last refresh, this one};
	// the first refresh has no history, so Q is the current PageRank.
	q, err := quality.Live(s.prevPR, pr.Rank, liveEstimator)
	if err != nil {
		panic("webcorpus: refresh live quality: " + err.Error())
	}
	s.prevPR = pr.Rank
	s.rank = &ranking.Context{
		Index:    s.ix,
		PageRank: pr.Rank,
		Quality:  q,
		Seed:     s.cfg.Seed,
	}
	s.nextRefresh = s.tick + s.refreshTicks
}

// stepSearch runs the tick's query sessions, a tick-level event drawn
// serially from its own stream. Rankings read only the context frozen at
// the last refresh, so they run in parallel before the serial visits.
func (s *Sim) stepSearch() {
	sc := &s.cfg.Search
	if s.time < -timeSlack {
		return // burn-in: the search era begins at t = 0
	}
	if s.rank == nil || s.tick >= s.nextRefresh {
		s.refreshSearch()
	}
	s.rank.Tick = s.tick // keys the randomized policy's per-query streams
	st := randx.NewStream(s.cfg.Seed, keySearch, s.tick)
	sessions := randx.Poisson(&st, sc.SessionsPerWeek*s.cfg.DT)
	ranked := make([][]int, sessions)
	err := par.DoErr(sessions, s.cfg.Workers, func(i int) (err error) {
		ranked[i], err = sc.Policy.Rank(s.rank, s.workload.Query(s.searchSeq+uint64(i)), sc.TopK)
		return err
	})
	if err != nil {
		// The context and k are constructed here and always valid.
		panic("webcorpus: policy rank: " + err.Error())
	}
	s.searchSeq += uint64(sessions)
	for _, docs := range ranked {
		s.searchSessions++
		for _, d := range docs {
			s.searchVisit(&st, graph.NodeID(d))
		}
	}
}

// searchVisit applies one search-driven visit to page p: a uniformly
// random user follows the result link, and the visit converts exactly as
// an organic one — discovery if the user was unaware, liking with
// probability Q(p), a published link with probability LinkProb — under
// the same likes <= aware <= Users clamps as the draw phase.
func (s *Sim) searchVisit(st *randx.Stream, p graph.NodeID) {
	s.searchVisits++
	n := float64(s.cfg.Users)
	unawareFrac := 1 - s.aware[p]/n
	if unawareFrac <= 0 {
		return // everyone already knows the page; re-reading changes nothing
	}
	if randx.Float64(st) >= unawareFrac {
		return // the visitor happened to be aware already
	}
	s.aware[p]++
	s.searchDiscoveries++
	if s.firstDisc[p] < 0 {
		s.firstDisc[p] = int64(s.tick)
	}
	if randx.Float64(st) < s.quality[p] && s.likes[p] < s.aware[p] {
		s.likes[p]++
		if randx.Float64(st) < s.cfg.LinkProb {
			s.createLinkTo(st, p)
		}
	}
}

// SearchStats reports the channel's cumulative counters: query sessions
// run, result visits made, and visits that were first discoveries.
func (s *Sim) SearchStats() (sessions, visits, discoveries int64) {
	return s.searchSessions, s.searchVisits, s.searchDiscoveries
}

// RefreshStats reports the index refreshes run and the page texts they
// analysed in total — each page exactly once.
func (s *Sim) RefreshStats() (refreshes, docsAnalysed int64) {
	return s.refreshes, s.docsAnalysed
}

// FirstDiscoveryWeek returns the simulation week at which page p was
// first discovered by a user beyond its seed liker — through either
// channel — and whether that has happened yet.
func (s *Sim) FirstDiscoveryWeek(p graph.NodeID) (float64, bool) {
	t := s.firstDisc[p]
	if t < 0 {
		return 0, false
	}
	// The discovery landed during tick t, i.e. by the end-of-tick clock.
	return float64(float64(t+1)*s.cfg.DT) - s.cfg.BurnInWeeks, true
}
