package webcorpus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"pagequality/internal/graph"
	"pagequality/internal/ranking"
	"pagequality/internal/snapshot"
)

// searchedConfig is smallConfig with the search channel on.
func searchedConfig() Config {
	cfg := smallConfig()
	cfg.Search = SearchConfig{
		SessionsPerWeek: 400,
		TopK:            5,
		Policy:          ranking.ByPageRank{},
	}
	return cfg
}

func TestSearchConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Search.SessionsPerWeek = -1 },
		func(c *Config) { c.Search.TopK = -3 },
	}
	for i, mutate := range mutations {
		cfg := searchedConfig()
		mutate(&cfg)
		if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("mutation %d: error %v, want ErrBadConfig", i, err)
		}
	}
	// The zero value disables the channel and must stay valid.
	cfg := smallConfig()
	if _, err := New(cfg); err != nil {
		t.Fatalf("zero SearchConfig rejected: %v", err)
	}
}

func TestQueryVocabDeterministic(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := s.QueryVocab(3)
	b := s.QueryVocab(3)
	if len(a) != 12*(1+3) {
		t.Fatalf("vocab size %d, want %d", len(a), 12*4)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("vocab not deterministic at %d: %q vs %q", i, a[i], b[i])
		}
	}
	// The head of the distribution is the topic names themselves.
	if a[0] != SiteTopic(0) {
		t.Fatalf("vocab head %q, want topic %q", a[0], SiteTopic(0))
	}
}

// TestSearchChannelActive verifies sessions run, convert, and change the
// corpus relative to the no-search baseline.
func TestSearchChannelActive(t *testing.T) {
	cfg := searchedConfig()
	searched, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	searched.AdvanceTo(4)
	sessions, visits, discoveries := searched.SearchStats()
	if sessions == 0 || visits == 0 || discoveries == 0 {
		t.Fatalf("search channel idle: sessions=%d visits=%d discoveries=%d", sessions, visits, discoveries)
	}
	if visits < sessions { // each session visits up to TopK results
		t.Fatalf("visits=%d < sessions=%d", visits, sessions)
	}
	if discoveries > visits {
		t.Fatalf("discoveries=%d > visits=%d", discoveries, visits)
	}

	base := smallConfig()
	plain, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	plain.AdvanceTo(4)
	if s, v, d := plain.SearchStats(); s != 0 || v != 0 || d != 0 {
		t.Fatalf("disabled channel reported stats %d/%d/%d", s, v, d)
	}
	// The searched web must have evolved differently (more discovery).
	var searchedAware, plainAware float64
	for p := 0; p < plain.NumPages() && p < searched.NumPages(); p++ {
		searchedAware += searched.aware[p]
		plainAware += plain.aware[p]
	}
	if searchedAware <= plainAware {
		t.Fatalf("search did not increase discovery: %g vs %g aware", searchedAware, plainAware)
	}
}

// TestSearchBurnInIdentical pins the "one seed set" property of policy
// comparisons: the burn-in corpus is bitwise identical
// whether or not search is configured, because no session fires before
// t = 0.
func TestSearchBurnInIdentical(t *testing.T) {
	enc := func(cfg Config) []byte {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := snapshot.Encode([]snapshot.Snapshot{s.SnapshotNow("t0")})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(enc(smallConfig()), enc(searchedConfig())) {
		t.Fatal("burn-in corpus differs once search is configured (sessions fired before t=0?)")
	}
}

// TestSearchedCorpusWorkerInvariance extends the kernel invariance
// contract to the search-in-the-loop corpus: sessions, refreshes and
// policy draws are tick-level serial events, so the evolved corpus must
// stay bitwise identical at every worker count.
func TestSearchedCorpusWorkerInvariance(t *testing.T) {
	run := func(workers int) ([]byte, *Sim) {
		cfg := searchedConfig()
		// More pages than one draw chunk so the parallel path is real.
		cfg.Sites = 30
		cfg.InitialPagesPerSite = 40
		cfg.BurnInWeeks = 2
		cfg.Search.Policy = ranking.Randomized{Epsilon: 0.3}
		cfg.Workers = workers
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.AdvanceTo(3)
		enc, err := snapshot.Encode([]snapshot.Snapshot{s.SnapshotNow("t")})
		if err != nil {
			t.Fatal(err)
		}
		return enc, s
	}
	ref, refSim := run(1)
	if refSim.NumPages() <= drawChunk {
		t.Fatalf("corpus has %d pages; need > drawChunk=%d", refSim.NumPages(), drawChunk)
	}
	refSess, refVisits, refDisc := refSim.SearchStats()
	if refSess == 0 {
		t.Fatal("search channel idle in invariance test")
	}
	// 3 deals the chunks unevenly; 8 runs more workers, and so more live
	// mark arrays, than most machines have CPUs; 0 = GOMAXPROCS.
	for _, workers := range []int{2, 3, 8, 0} {
		got, sim := run(workers)
		if !bytes.Equal(got, ref) {
			t.Fatalf("searched snapshots with Workers=%d differ from Workers=1", workers)
		}
		if s, v, d := sim.SearchStats(); s != refSess || v != refVisits || d != refDisc {
			t.Fatalf("search stats with Workers=%d: %d/%d/%d vs %d/%d/%d",
				workers, s, v, d, refSess, refVisits, refDisc)
		}
		for p := 0; p < sim.NumPages(); p++ {
			// Bitwise float comparison is deliberate: the invariance
			// contract is exact equality.
			if math.Float64bits(sim.aware[p]) != math.Float64bits(refSim.aware[p]) ||
				math.Float64bits(sim.likes[p]) != math.Float64bits(refSim.likes[p]) {
				t.Fatalf("page %d user-state with Workers=%d differs", p, workers)
			}
			if sim.firstDisc[p] != refSim.firstDisc[p] {
				t.Fatalf("page %d firstDisc with Workers=%d: %d vs %d",
					p, workers, sim.firstDisc[p], refSim.firstDisc[p])
			}
		}
	}
}

// TestSearchedCorpusBitsPinned pins the corpus the simulate benchmark
// evolves — the default 154-site web, 1500 sessions a week at top-10
// under Randomized{0.2}, six weeks — at every worker count: page and link
// counts, the CRC32 of the graph's binary form, the search counters, and
// a CRC32 over the Float64bits of every page's aware and likes. A kernel
// change that keeps the corpus must keep every one of these numbers.
func TestSearchedCorpusBitsPinned(t *testing.T) {
	type outcome struct {
		pages, links                  int
		graphCRC, userCRC             uint32
		sessions, visits, discoveries int64
	}
	pins := map[int64]outcome{
		1: {1909, 238482, 0x8b608635, 0xb5ef33b1, 8836, 88360, 8813},
		7: {1911, 227746, 0x98d5fca0, 0xa1592b28, 8947, 89470, 9683},
	}
	for _, seed := range []int64{1, 7} {
		for _, workers := range []int{1, 2, 0} { // 0 = GOMAXPROCS
			cfg := DefaultConfig()
			cfg.Seed = seed
			cfg.Workers = workers
			cfg.Search = SearchConfig{SessionsPerWeek: 1500, TopK: 10, Policy: ranking.Randomized{Epsilon: 0.2}}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.AdvanceTo(6)
			var user []byte
			for p := range s.aware {
				user = binary.LittleEndian.AppendUint64(user, math.Float64bits(s.aware[p]))
				user = binary.LittleEndian.AppendUint64(user, math.Float64bits(s.likes[p]))
			}
			got := outcome{pages: s.NumPages(), links: s.NumLinks(),
				graphCRC: crc32.ChecksumIEEE(s.Graph().AppendBinary(nil)), userCRC: crc32.ChecksumIEEE(user)}
			got.sessions, got.visits, got.discoveries = s.SearchStats()
			if got != pins[seed] {
				t.Errorf("seed %d Workers=%d: %+v, want %+v", seed, workers, got, pins[seed])
			}
		}
	}
}

// TestSearchedCorpusListOrderPinned pins what AppendBinary cannot see:
// the order of every out-list and in-list of the simulate corpus, as
// CRC32s over the lists in page order. AppendBinary sorts out-lists, but
// a rendered page lists its links in out-list order and PageRank sums
// in-lists in theirs, so the tick's replay must keep both orders.
func TestSearchedCorpusListOrderPinned(t *testing.T) {
	pins := map[int64][2]uint32{1: {0x2058f250, 0xa1e5ca49}, 7: {0x378e724b, 0x20846cfc}}
	for seed, want := range pins {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Search = SearchConfig{SessionsPerWeek: 1500, TopK: 10, Policy: ranking.Randomized{Epsilon: 0.2}}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.AdvanceTo(6)
		var out, in []byte
		for p := 0; p < s.NumPages(); p++ {
			for _, x := range s.Graph().OutLinks(graph.NodeID(p)) {
				out = binary.LittleEndian.AppendUint32(out, uint32(x))
			}
			for _, x := range s.Graph().InLinks(graph.NodeID(p)) {
				in = binary.LittleEndian.AppendUint32(in, uint32(x))
			}
			out, in = append(out, 0xff), append(in, 0xff)
		}
		if got := [2]uint32{crc32.ChecksumIEEE(out), crc32.ChecksumIEEE(in)}; got != want {
			t.Errorf("seed %d: list-order CRCs %#x, want %#x", seed, got, want)
		}
	}
}

func TestFirstDiscoveryWeek(t *testing.T) {
	cfg := searchedConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	initialPages := s.NumPages()
	s.AdvanceTo(6)
	found := 0
	for p := 0; p < s.NumPages(); p++ {
		id := graph.NodeID(p)
		week, ok := s.FirstDiscoveryWeek(id)
		if !ok {
			continue
		}
		found++
		created := s.Graph().Page(id).Created
		// Setup pages are backdated across the burn-in window but exist
		// from the first tick, so only run-born pages have a meaningful
		// birth-before-discovery ordering.
		if p >= initialPages && week < created-timeSlack {
			t.Fatalf("page %d discovered at week %g before its birth %g", p, week, created)
		}
		if week > s.Time()+timeSlack {
			t.Fatalf("page %d discovered at week %g after now %g", p, week, s.Time())
		}
		if s.aware[p] <= 1 {
			t.Fatalf("page %d has a discovery week but aware=%g", p, s.aware[p])
		}
	}
	if found == 0 {
		t.Fatal("no page was ever discovered")
	}
}

// TestAdvanceToTickExact pins the clock bugfix: with an inexact DT the
// tick count must still match round(span/DT) exactly, and splitting the
// horizon across AdvanceTo calls must not change it.
func TestAdvanceToTickExact(t *testing.T) {
	cfg := smallConfig()
	cfg.DT = 0.1 // not exactly representable in binary
	cfg.BurnInWeeks = 0
	cfg.BirthRate = 0
	cfg.NoiseRate = 0

	oneShot, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oneShot.AdvanceTo(100)
	if want := uint64(math.Round(100 / cfg.DT)); oneShot.tick != want {
		t.Fatalf("one-shot AdvanceTo(100): %d ticks, want %d", oneShot.tick, want)
	}

	split, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1000 single-week hops accumulate no drift: same tick count.
	for w := 1; w <= 100; w++ {
		split.AdvanceTo(float64(w))
	}
	if split.tick != oneShot.tick {
		t.Fatalf("split advance took %d ticks, one-shot %d", split.tick, oneShot.tick)
	}
	if math.Float64bits(split.Time()) != math.Float64bits(oneShot.Time()) {
		t.Fatalf("clocks differ: %v vs %v", split.Time(), oneShot.Time())
	}
}

// BenchmarkSimulateRep is one repetition of cmd/bench's simulate workload
// in process: the 154-site seed-1 corpus under Pandey et al.'s ε = 0.2
// randomized ranking at 1,500 sessions a week, built, then advanced one
// week at a time for six weeks. Its ns/op follows that workload's
// op_p50_ms.
func BenchmarkSimulateRep(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Sites, cfg.Seed = 154, 1
	cfg.Search = SearchConfig{SessionsPerWeek: 1500, TopK: 10, Policy: ranking.Randomized{Epsilon: 0.2}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for week := 1; week <= 6; week++ {
			s.AdvanceTo(float64(week))
		}
	}
}
