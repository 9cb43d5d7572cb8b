package metrics

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRelativeError(t *testing.T) {
	got, err := RelativeError(0.5, 1.0)
	if err != nil || math.Abs(got-0.5) > 1e-15 {
		t.Fatalf("RelativeError(0.5,1) = (%g,%v)", got, err)
	}
	got, err = RelativeError(2.0, 1.0)
	if err != nil || math.Abs(got-1.0) > 1e-15 {
		t.Fatalf("RelativeError(2,1) = (%g,%v)", got, err)
	}
	if _, err := RelativeError(1, 0); !errors.Is(err, ErrBadInput) {
		t.Fatal("zero truth accepted")
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{4, 1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Mean-2.5) > 1e-15 || math.Abs(s.Median-2.5) > 1e-15 {
		t.Fatalf("mean/median = %g/%g", s.Mean, s.Median)
	}
	wantSD := math.Sqrt(1.25)
	if math.Abs(s.StdDev-wantSD) > 1e-12 {
		t.Fatalf("stddev = %g, want %g", s.StdDev, wantSD)
	}
	if _, err := Summarize(nil); !errors.Is(err, ErrBadInput) {
		t.Fatal("empty sample accepted")
	}
	one, err := Summarize([]float64{7})
	if err != nil || one.Median != 7 || one.P90 != 7 {
		t.Fatalf("singleton summary = %+v (%v)", one, err)
	}
}

func TestHistogramFigure5Binning(t *testing.T) {
	h := Figure5Histogram()
	if len(h.Bins) != 10 || h.Width != 0.1 {
		t.Fatalf("figure-5 histogram shape wrong: %+v", h)
	}
	// Paper semantics: "bars labeled as 0.1 correspond to the error range
	// between 0 and 0.1"; errors > 1 go into the last bin.
	values := []float64{0, 0.05, 0.1, 0.11, 0.95, 1.0, 1.5, 42}
	if err := h.AddAll(values); err != nil {
		t.Fatal(err)
	}
	if h.Total != len(values) {
		t.Fatalf("total = %d", h.Total)
	}
	if h.Bins[0] != 3 { // 0, 0.05, 0.1
		t.Fatalf("bin 0 = %d, want 3", h.Bins[0])
	}
	if h.Bins[1] != 1 { // 0.11
		t.Fatalf("bin 1 = %d, want 1", h.Bins[1])
	}
	if h.Bins[9] != 4 { // 0.95, 1.0, 1.5, 42
		t.Fatalf("bin 9 = %d, want 4", h.Bins[9])
	}
	if got := h.Fraction(0); math.Abs(got-3.0/8) > 1e-15 {
		t.Fatalf("Fraction(0) = %g", got)
	}
	fr := h.Fractions()
	sum := 0.0
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("fractions sum to %g", sum)
	}
	if h.Label(0) != "0.1" || h.Label(9) != "1.0" {
		t.Fatalf("labels = %q, %q", h.Label(0), h.Label(9))
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 10); !errors.Is(err, ErrBadInput) {
		t.Fatal("zero width accepted")
	}
	if _, err := NewHistogram(0.1, 0); !errors.Is(err, ErrBadInput) {
		t.Fatal("zero bins accepted")
	}
	h := Figure5Histogram()
	if err := h.Add(-0.1); !errors.Is(err, ErrBadInput) {
		t.Fatal("negative value accepted")
	}
	if err := h.Add(math.NaN()); !errors.Is(err, ErrBadInput) {
		t.Fatal("NaN accepted")
	}
	if h.Fraction(0) != 0 {
		t.Fatal("empty histogram fraction nonzero")
	}
}

func TestKendallTauPerfect(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	tau, err := KendallTau(a, a)
	if err != nil || math.Abs(tau-1) > 1e-12 {
		t.Fatalf("tau(identical) = %g (%v)", tau, err)
	}
	rev := []float64{5, 4, 3, 2, 1}
	tau, err = KendallTau(a, rev)
	if err != nil || math.Abs(tau+1) > 1e-12 {
		t.Fatalf("tau(reversed) = %g (%v)", tau, err)
	}
}

func TestKendallTauKnownValue(t *testing.T) {
	// Classic example: one discordant pair out of 6 -> tau = (5-1)/6 = 2/3.
	a := []float64{1, 2, 3, 4}
	b := []float64{1, 2, 4, 3}
	tau, err := KendallTau(a, b)
	if err != nil || math.Abs(tau-2.0/3) > 1e-12 {
		t.Fatalf("tau = %g (%v), want 2/3", tau, err)
	}
}

func TestKendallTauTies(t *testing.T) {
	// With ties, τ-b applies the tie correction. a has a tie; the tied pair
	// is neither concordant nor discordant.
	a := []float64{1, 1, 2}
	b := []float64{1, 2, 3}
	// C = 2 (pairs (0,2),(1,2)), D = 0, tiesA = 1, tiesB = 0, total = 3.
	// tau = 2 / sqrt((3-1)*(3-0)) = 2/sqrt(6).
	tau, err := KendallTau(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 / math.Sqrt(6)
	if math.Abs(tau-want) > 1e-12 {
		t.Fatalf("tau = %g, want %g", tau, want)
	}
}

func TestKendallTauErrors(t *testing.T) {
	if _, err := KendallTau([]float64{1}, []float64{1}); !errors.Is(err, ErrBadInput) {
		t.Fatal("n=1 accepted")
	}
	if _, err := KendallTau([]float64{1, 2}, []float64{1}); !errors.Is(err, ErrBadInput) {
		t.Fatal("length mismatch accepted")
	}
	if _, err := KendallTau([]float64{1, 1}, []float64{1, 2}); !errors.Is(err, ErrBadInput) {
		t.Fatal("constant ranking accepted")
	}
}

// Property: the O(n log n) Kendall implementation matches a brute-force
// O(n²) pair count on random data with ties.
func TestQuickKendallMatchesBruteForce(t *testing.T) {
	brute := func(a, b []float64) float64 {
		n := len(a)
		var c, d, ta, tb int64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				da := a[i] - a[j]
				db := b[i] - b[j]
				switch {
				case da == 0 && db == 0:
					ta++
					tb++
				case da == 0:
					ta++
				case db == 0:
					tb++
				case da*db > 0:
					c++
				default:
					d++
				}
			}
		}
		total := int64(n) * int64(n-1) / 2
		den := math.Sqrt(float64(total-ta)) * math.Sqrt(float64(total-tb))
		return float64(c-d) / den
	}
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%30) + 3
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = float64(rng.Intn(6)) // small alphabet to force ties
			b[i] = float64(rng.Intn(6))
		}
		got, err := KendallTau(a, b)
		if err != nil {
			// constant rankings are legitimately rejected
			return errors.Is(err, ErrBadInput)
		}
		return math.Abs(got-brute(a, b)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSpearmanRho(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	rho, err := SpearmanRho(a, a)
	if err != nil || math.Abs(rho-1) > 1e-12 {
		t.Fatalf("rho(identical) = %g (%v)", rho, err)
	}
	rev := []float64{5, 4, 3, 2, 1}
	rho, err = SpearmanRho(a, rev)
	if err != nil || math.Abs(rho+1) > 1e-12 {
		t.Fatalf("rho(reversed) = %g (%v)", rho, err)
	}
	// Monotone transform invariance: rho(a, exp(a)) = 1.
	exp := make([]float64, len(a))
	for i, x := range a {
		exp[i] = math.Exp(x)
	}
	rho, err = SpearmanRho(a, exp)
	if err != nil || math.Abs(rho-1) > 1e-12 {
		t.Fatalf("rho(monotone transform) = %g (%v)", rho, err)
	}
	if _, err := SpearmanRho([]float64{1, 1}, []float64{1, 2}); !errors.Is(err, ErrBadInput) {
		t.Fatal("constant input accepted")
	}
	if _, err := SpearmanRho([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrBadInput) {
		t.Fatal("length mismatch accepted")
	}
}

func TestFractionalRanksTies(t *testing.T) {
	r := fractionalRanks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] { //pqlint:allow floateq fractional ranks are exact half-integers by construction
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}

func TestNDCG(t *testing.T) {
	rel := []float64{3, 2, 1, 0}
	// Scores that rank items exactly by relevance: NDCG = 1.
	got, err := NDCG([]float64{10, 9, 8, 7}, rel, 4)
	if err != nil || math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect NDCG = %g (%v)", got, err)
	}
	// Worst ordering scores strictly lower.
	worst, err := NDCG([]float64{1, 2, 3, 4}, rel, 4)
	if err != nil {
		t.Fatal(err)
	}
	if worst >= got {
		t.Fatalf("worst NDCG %g >= best %g", worst, got)
	}
	if _, err := NDCG([]float64{1, 2}, []float64{0, 0}, 2); !errors.Is(err, ErrBadInput) {
		t.Fatal("all-zero relevance accepted")
	}
	if _, err := NDCG([]float64{1, 2}, []float64{-1, 0}, 2); !errors.Is(err, ErrBadInput) {
		t.Fatal("negative relevance accepted")
	}
	if _, err := NDCG([]float64{1}, []float64{1, 2}, 1); !errors.Is(err, ErrBadInput) {
		t.Fatal("length mismatch accepted")
	}
	if _, err := NDCG([]float64{1, 2}, []float64{1, 2}, 3); !errors.Is(err, ErrBadInput) {
		t.Fatal("k>n accepted")
	}
}

func TestCountInversions(t *testing.T) {
	cases := []struct {
		xs   []float64
		want int64
	}{
		{[]float64{}, 0},
		{[]float64{1}, 0},
		{[]float64{1, 2, 3}, 0},
		{[]float64{3, 2, 1}, 3},
		{[]float64{2, 1, 3}, 1},
		{[]float64{1, 1, 1}, 0}, // equal elements are not inversions
	}
	for _, c := range cases {
		if got := countInversions(c.xs); got != c.want {
			t.Errorf("inversions(%v) = %d, want %d", c.xs, got, c.want)
		}
	}
}

func BenchmarkKendallTau(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 10000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
		y[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KendallTau(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
