package webcorpus

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"pagequality/internal/graph"
	"pagequality/internal/snapshot"
)

// smallConfig is a fast corpus for unit tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Sites = 12
	cfg.InitialPagesPerSite = 6
	cfg.Users = 3000
	cfg.VisitRate = 3000
	cfg.LinkProb = 0.2
	cfg.BirthRate = 2
	cfg.BurnInWeeks = 10
	cfg.Seed = 7
	return cfg
}

func TestConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Sites = 0 },
		func(c *Config) { c.InitialPagesPerSite = 0 },
		func(c *Config) { c.Users = 5 },
		func(c *Config) { c.VisitRate = 0 },
		func(c *Config) { c.LinkProb = 0 },
		func(c *Config) { c.LinkProb = 1.5 },
		func(c *Config) { c.SameSiteBias = -0.1 },
		func(c *Config) { c.QualityAlpha = 0 },
		func(c *Config) { c.BirthRate = -1 },
		func(c *Config) { c.ForgetRate = -1 },
		func(c *Config) { c.NoiseRate = -1 },
		func(c *Config) { c.DT = -0.5 },
		func(c *Config) { c.BurnInWeeks = -1 },
		func(c *Config) { c.Workers = -1 },
	}
	for i, m := range mutations {
		cfg := DefaultConfig()
		m(&cfg)
		if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestCorpusShape(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Time() < -1e-9 || s.Time() > 0.5 {
		t.Fatalf("time after burn-in = %g, want ~0", s.Time())
	}
	if s.NumPages() < 12 {
		t.Fatalf("pages = %d", s.NumPages())
	}
	if s.NumLinks() == 0 {
		t.Fatal("no links after burn-in")
	}
	if err := s.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	// Every page has a quality in (0,1] and a created time in the burn-in
	// window or later.
	for i := 0; i < s.NumPages(); i++ {
		pg := s.Graph().Page(graph.NodeID(i))
		if !(pg.Quality > 0 && pg.Quality <= 1) {
			t.Fatalf("page %d quality %g", i, pg.Quality)
		}
		if pg.Created < -10-1e-9 || pg.Created > s.Time() {
			t.Fatalf("page %d created %g outside [-10,%g]", i, pg.Created, s.Time())
		}
		if pg.URL == "" || pg.Site < 0 || int(pg.Site) >= 12 {
			t.Fatalf("page %d metadata %+v", i, pg)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumPages() != b.NumPages() || a.NumLinks() != b.NumLinks() {
		t.Fatalf("same seed differs: (%d,%d) vs (%d,%d)",
			a.NumPages(), a.NumLinks(), b.NumPages(), b.NumLinks())
	}
	cfg := smallConfig()
	cfg.Seed = 8
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumPages() == c.NumPages() && a.NumLinks() == c.NumLinks() {
		t.Log("warning: different seeds produced identical counts (possible but unlikely)")
	}
}

func TestEvolutionGrowsWeb(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	pages0, links0 := s.NumPages(), s.NumLinks()
	s.AdvanceTo(8)
	if s.NumPages() <= pages0 {
		t.Fatalf("pages did not grow: %d -> %d", pages0, s.NumPages())
	}
	if s.NumLinks() <= links0 {
		t.Fatalf("links did not grow: %d -> %d", links0, s.NumLinks())
	}
	if err := s.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
}

// Higher-quality pages accumulate more links: the corpus must realise the
// model's central mechanism. Compare mean final in-degree of the top and
// bottom quality terciles among pages born before burn-in midpoint.
func TestQualityDrivesLinks(t *testing.T) {
	cfg := smallConfig()
	cfg.NoiseRate = 0 // keep the comparison clean
	cfg.ForgetRate = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.AdvanceTo(20)
	g := s.Graph()
	type pq struct {
		deg int
		q   float64
	}
	var old []pq
	for i := 0; i < g.NumNodes(); i++ {
		pg := g.Page(graph.NodeID(i))
		if pg.Created < -5 {
			old = append(old, pq{g.InDegree(graph.NodeID(i)), pg.Quality})
		}
	}
	if len(old) < 20 {
		t.Fatalf("only %d old pages", len(old))
	}
	var hiDeg, hiN, loDeg, loN float64
	for _, x := range old {
		if x.q > 0.6 {
			hiDeg += float64(x.deg)
			hiN++
		} else if x.q < 0.3 {
			loDeg += float64(x.deg)
			loN++
		}
	}
	if hiN == 0 || loN == 0 {
		t.Skip("quality terciles empty for this seed")
	}
	if hiDeg/hiN <= loDeg/loN {
		t.Fatalf("high-quality mean in-degree %.1f not above low-quality %.1f",
			hiDeg/hiN, loDeg/loN)
	}
}

func TestPaperSchedule(t *testing.T) {
	sched := PaperSchedule()
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sched.Times) != 4 {
		t.Fatalf("schedule has %d snapshots", len(sched.Times))
	}
	gaps := sched.Gaps()
	// Figure 4: one month, one month, four months.
	if gaps[0] != 4 || gaps[1] != 4 || gaps[2] != 18 {
		t.Fatalf("gaps = %v, want [4 4 18]", gaps)
	}
	if sched.Labels[0] != "t1" || sched.Labels[3] != "t4" {
		t.Fatalf("labels = %v", sched.Labels)
	}
}

func TestScheduleValidation(t *testing.T) {
	bad := []Schedule{
		{},
		{Times: []float64{0, 1}, Labels: []string{"a"}},
		{Times: []float64{0}, Labels: []string{""}},
		{Times: []float64{4, 0}, Labels: []string{"a", "b"}},
	}
	for i, s := range bad {
		if err := s.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("schedule %d accepted", i)
		}
	}
	if g := (Schedule{Times: []float64{1}, Labels: []string{"x"}}).Gaps(); g != nil {
		t.Fatal("single snapshot has gaps")
	}
}

func TestRunSchedule(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := s.RunSchedule(PaperSchedule())
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 4 {
		t.Fatalf("%d snapshots", len(snaps))
	}
	for i, sn := range snaps {
		if err := sn.Graph.Validate(); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
	// Snapshots are deep copies: later snapshots see more pages.
	if snaps[3].Graph.NumNodes() <= snaps[0].Graph.NumNodes() {
		t.Fatalf("web did not grow across snapshots: %d -> %d",
			snaps[0].Graph.NumNodes(), snaps[3].Graph.NumNodes())
	}
	// The aligned intersection mirrors §8.1's "common pages".
	al, err := snapshot.Align(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if al.NumPages() == 0 || al.NumPages() > snaps[0].Graph.NumNodes() {
		t.Fatalf("aligned pages = %d", al.NumPages())
	}
	// Running a schedule that is now in the past must fail.
	if _, err := s.RunSchedule(PaperSchedule()); !errors.Is(err, ErrBadConfig) {
		t.Fatal("past schedule accepted")
	}
}

func TestTrueQualities(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := s.Graph()
	urls := []string{g.Page(0).URL, g.Page(3).URL}
	qs, err := s.TrueQualities(urls)
	if err != nil {
		t.Fatal(err)
	}
	if qs[0] != g.Page(0).Quality || qs[1] != g.Page(3).Quality { //pqlint:allow floateq the quality vector must be an exact copy of the page fields
		t.Fatal("qualities do not match pages")
	}
	if _, err := s.TrueQualities([]string{"http://nowhere/"}); err == nil {
		t.Fatal("unknown URL accepted")
	}
}

func TestPopularityBounded(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.AdvanceTo(15)
	for i := 0; i < s.NumPages(); i++ {
		id := graph.NodeID(i)
		pop := s.Popularity(id)
		q := s.g.Page(id).Quality
		if pop < 0 || pop > 1 {
			t.Fatalf("page %d popularity %g outside [0,1]", i, pop)
		}
		// Popularity can exceed Q only through noise links, which do not
		// affect the likes count — so likes/n <= ~Q + sampling slack.
		if pop > q+0.08 {
			t.Fatalf("page %d popularity %g far above quality %g", i, pop, q)
		}
	}
}

// The evolved corpus must be bitwise identical at every worker count: the
// per-page counter streams make draws scheduling-independent, and this test
// enforces it on the full pipeline (burn-in + schedule + snapshots).
func TestStepWorkerCountInvariance(t *testing.T) {
	run := func(workers int) ([]byte, *Sim) {
		cfg := smallConfig()
		// More pages than one draw chunk, so the sharded parallel path is
		// genuinely exercised (smallConfig stays below the threshold and
		// would fall back to the serial draw at every worker count).
		cfg.Sites = 30
		cfg.InitialPagesPerSite = 40
		cfg.BurnInWeeks = 3
		cfg.Workers = workers
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		snaps, err := s.RunSchedule(PaperSchedule())
		if err != nil {
			t.Fatal(err)
		}
		enc, err := snapshot.Encode(snaps)
		if err != nil {
			t.Fatal(err)
		}
		return enc, s
	}
	ref, refSim := run(1)
	if refSim.NumPages() <= drawChunk {
		t.Fatalf("corpus has %d pages; need > drawChunk=%d to exercise the parallel path",
			refSim.NumPages(), drawChunk)
	}
	for _, workers := range []int{2, 0} { // 0 = GOMAXPROCS
		got, sim := run(workers)
		if !bytes.Equal(got, ref) {
			t.Fatalf("snapshots with Workers=%d differ from Workers=1", workers)
		}
		if sim.NumPages() != refSim.NumPages() {
			t.Fatalf("page count with Workers=%d: %d vs %d", workers, sim.NumPages(), refSim.NumPages())
		}
		for p := 0; p < sim.NumPages(); p++ {
			// Bitwise float comparison is deliberate here (see pqlint's
			// floateq rationale): the invariance contract is exact equality.
			if math.Float64bits(sim.aware[p]) != math.Float64bits(refSim.aware[p]) ||
				math.Float64bits(sim.likes[p]) != math.Float64bits(refSim.likes[p]) {
				t.Fatalf("page %d user-state with Workers=%d differs: aware %v vs %v, likes %v vs %v",
					p, workers, sim.aware[p], refSim.aware[p], sim.likes[p], refSim.likes[p])
			}
		}
	}
}

// Regression test for the normal-approximation overshoot: with a tiny user
// population and a huge visit rate, the unclamped draw phase pushed aware
// and likes past Users, so Popularity() exceeded 1. Drive that regime hard
// and assert the invariants every tick — with and without the search
// channel, whose session visits must respect the same
// likes <= aware <= Users clamps as organic draws.
func TestPopularityClampedTinyUsers(t *testing.T) {
	for _, searched := range []bool{false, true} {
		name := "organic-only"
		if searched {
			name = "with-search"
		}
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Users = 12
			cfg.VisitRate = 50000 // enormous visit pressure on 12 users
			cfg.QualityAlpha = 60 // qualities near 1: almost every discovery likes
			cfg.QualityBeta = 1
			cfg.BurnInWeeks = 0
			if searched {
				// Heavy session traffic funnelling everyone to the same
				// top results, so search alone could blow the clamps.
				cfg.Search = SearchConfig{SessionsPerWeek: 2000, TopK: 8}
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := float64(cfg.Users)
			for tick := 0; tick < 200; tick++ {
				s.Step()
				for p := 0; p < s.NumPages(); p++ {
					id := graph.NodeID(p)
					if s.aware[p] > n {
						t.Fatalf("tick %d page %d: aware %g exceeds Users %g", tick, p, s.aware[p], n)
					}
					if s.likes[p] > s.aware[p] {
						t.Fatalf("tick %d page %d: likes %g exceeds aware %g", tick, p, s.likes[p], s.aware[p])
					}
					if pop := s.Popularity(id); pop < 0 || pop > 1 {
						t.Fatalf("tick %d page %d: popularity %g outside [0,1]", tick, p, pop)
					}
				}
			}
			if searched {
				if sess, _, _ := s.SearchStats(); sess == 0 {
					t.Fatal("search channel never fired in the clamp test")
				}
			}
		})
	}
}

func TestAppendPageURL(t *testing.T) {
	for _, tc := range []struct {
		site, seq int
		want      string
	}{
		{0, 0, "http://site000.example/page000000"},
		{7, 42, "http://site007.example/page000042"},
		{154, 1234567, "http://site154.example/page1234567"},
	} {
		if got := string(appendPageURL(nil, tc.site, tc.seq)); got != tc.want {
			t.Errorf("appendPageURL(%d,%d) = %q, want %q", tc.site, tc.seq, got, tc.want)
		}
	}
}

func TestPageTextDeterministicAndTopical(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := s.PageText(0, TextOptions{})
	b := s.PageText(0, TextOptions{})
	if a != b {
		t.Fatal("page text not deterministic")
	}
	if c := s.PageText(1, TextOptions{}); c == a {
		t.Fatal("different pages produced identical text")
	}
	topic := SiteTopic(int(s.Graph().Page(0).Site))
	if !strings.Contains(a, topic) {
		t.Fatalf("text does not contain site topic %q", topic)
	}
	words := strings.Fields(a)
	if len(words) < 50 {
		t.Fatalf("text too short: %d words", len(words))
	}
	texts := s.AllTexts(TextOptions{MinWords: 10, MaxWords: 20})
	if len(texts) != s.NumPages() {
		t.Fatalf("AllTexts returned %d texts for %d pages", len(texts), s.NumPages())
	}
}

func TestSiteTopicStable(t *testing.T) {
	if SiteTopic(0) != SiteTopic(len(topics)) {
		t.Fatal("topic assignment not round-robin")
	}
	if SiteTopic(-1) == "" {
		t.Fatal("negative site broke SiteTopic")
	}
}

func BenchmarkAdvanceWeek(b *testing.B) {
	cfg := smallConfig()
	cfg.BurnInWeeks = 5
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AdvanceTo(s.Time() + 1)
	}
}

func TestBirthPage(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := s.NumPages()
	id, err := s.BirthPage(3, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPages() != before+1 {
		t.Fatalf("pages %d -> %d", before, s.NumPages())
	}
	pg := s.Graph().Page(id)
	if pg.Quality != 0.9 || pg.Site != 3 {
		t.Fatalf("injected page = %+v", pg)
	}
	if pg.Created != s.Time() { //pqlint:allow floateq Created must equal the simulator clock exactly
		t.Fatalf("created %g, want current time %g", pg.Created, s.Time())
	}
	// Seeded with one liker and one in-link.
	if s.Popularity(id) <= 0 {
		t.Fatal("injected page has no seed liker")
	}
	if s.Graph().InDegree(id) != 1 {
		t.Fatalf("in-degree = %d, want 1", s.Graph().InDegree(id))
	}
	// Validation.
	if _, err := s.BirthPage(-1, 0.5); err == nil {
		t.Fatal("negative site accepted")
	}
	if _, err := s.BirthPage(99999, 0.5); err == nil {
		t.Fatal("out-of-range site accepted")
	}
	if _, err := s.BirthPage(0, 0); err == nil {
		t.Fatal("zero quality accepted")
	}
	if _, err := s.BirthPage(0, 1.5); err == nil {
		t.Fatal("quality > 1 accepted")
	}
	// The injected page participates in evolution: advance and check it
	// gains popularity.
	p0 := s.Popularity(id)
	s.AdvanceTo(s.Time() + 30)
	if s.Popularity(id) <= p0 {
		t.Fatalf("injected page did not grow: %g -> %g", p0, s.Popularity(id))
	}
}
