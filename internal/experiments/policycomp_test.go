package experiments

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"pagequality/internal/ranking"
	"pagequality/internal/webcorpus"
)

// quickPolicyConfig is a small-but-real comparison: enough pages that
// the webcorpus draw phase actually runs in parallel chunks, short
// enough to keep the test under a few seconds.
func quickPolicyConfig() PolicyComparisonConfig {
	corpus := webcorpus.DefaultConfig()
	corpus.Sites = 30
	corpus.InitialPagesPerSite = 40
	corpus.Users = 400
	corpus.VisitRate = 400
	corpus.BurnInWeeks = 1
	corpus.BirthRate = 20
	corpus.Seed = 7
	return PolicyComparisonConfig{
		Corpus: corpus,
		Search: webcorpus.SearchConfig{SessionsPerWeek: 300, TopK: 5},
		Policies: []ranking.Policy{
			ranking.ByPageRank{},
			ranking.Randomized{Epsilon: 0.3},
		},
		Weeks: 2,
	}
}

// TestPolicyComparisonDeterministic pins the acceptance criterion: two
// runs of the same config produce identical results, including every
// float, despite the per-policy goroutine fan-out.
func TestPolicyComparisonDeterministic(t *testing.T) {
	cfg := quickPolicyConfig()
	a, err := RankingPolicyComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RankingPolicyComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs differ:\n%+v\n%+v", a, b)
	}
	for i, out := range a.Outcomes {
		if out.Policy != cfg.Policies[i].Name() {
			t.Fatalf("outcome %d is %q, want %q (order not preserved)", i, out.Policy, cfg.Policies[i].Name())
		}
		if out.Sessions == 0 || out.SearchVisits == 0 {
			t.Fatalf("policy %s: search channel idle (%d sessions)", out.Policy, out.Sessions)
		}
	}
}

// TestPolicyComparisonRefusesHorizon: a horizon that is NaN, infinite,
// negative or past webcorpus' tick bound is refused with ErrBadConfig,
// before any corpus is built, where AdvanceTo would panic or go nowhere.
func TestPolicyComparisonRefusesHorizon(t *testing.T) {
	for _, weeks := range []float64{1e300, math.NaN(), math.Inf(1), -1} {
		cfg := quickPolicyConfig()
		cfg.Weeks = weeks
		if res, err := RankingPolicyComparison(cfg); !errors.Is(err, webcorpus.ErrBadConfig) {
			t.Errorf("Weeks=%g: result %v, error %v; want ErrBadConfig", weeks, res, err)
		}
	}
}

// TestPolicyComparisonWorkerInvariant runs the same comparison with the
// corpus draw phase on 1 and then 2 workers: the results must be
// bitwise identical.
func TestPolicyComparisonWorkerInvariant(t *testing.T) {
	run := func(workers int) *PolicyComparisonResult {
		cfg := quickPolicyConfig()
		cfg.Corpus.Workers = workers
		res, err := RankingPolicyComparison(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Workers=1 vs Workers=2 differ:\n%+v\n%+v", a, b)
	}
}

func TestWritePolicyComparisonCSV(t *testing.T) {
	res := &PolicyComparisonResult{
		Seed:  1,
		Weeks: 26,
		Outcomes: []PolicyOutcome{
			{Policy: "none", Pages: 10, Links: 20, QualityWeightedDiscovery: 0.5},
			{Policy: "randomized-0.2", Pages: 11, Links: 21, Sessions: 9},
		},
	}
	var buf bytes.Buffer
	if err := WritePolicyComparisonCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	wantCols := len(strings.Split(lines[0], ","))
	for i, line := range lines {
		if got := len(strings.Split(line, ",")); got != wantCols {
			t.Fatalf("line %d has %d columns, header has %d", i, got, wantCols)
		}
	}
	if !strings.HasPrefix(lines[1], "none,10,20,") {
		t.Fatalf("first row %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "randomized-0.2,11,21,9,") {
		t.Fatalf("second row %q", lines[2])
	}
}
