package loadgen

import (
	"fmt"
	"math"
	"testing"
)

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Fatal("n=0 must fail")
	}
	if _, err := NewZipf(5, -1); err == nil {
		t.Fatal("negative exponent must fail")
	}
	if _, err := NewZipf(5, math.NaN()); err == nil {
		t.Fatal("NaN exponent must fail")
	}
	if _, err := NewZipf(5, math.Inf(1)); err == nil {
		t.Fatal("Inf exponent must fail")
	}
	if _, err := NewWorkload(nil, 1, 1); err == nil {
		t.Fatal("empty vocabulary must fail")
	}
	if _, err := NewWorkload([]string{"a"}, -2, 1); err == nil {
		t.Fatal("workload must propagate zipf validation")
	}
}

func TestZipfRank(t *testing.T) {
	z, err := NewZipf(10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(z.cdf) != 10 {
		t.Fatalf("N = %d", len(z.cdf))
	}
	if r := z.Rank(0); r != 0 {
		t.Fatalf("Rank(0) = %d, want head rank 0", r)
	}
	if r := z.Rank(0.999_999_999); r != 9 {
		t.Fatalf("Rank(~1) = %d, want tail rank 9", r)
	}
	if r := z.Rank(1.5); r != 9 { // past the rounding edge: clamp, no panic
		t.Fatalf("Rank(1.5) = %d", r)
	}
	// Rank is monotone in u.
	prev := -1
	for u := 0.0; u < 1.0; u += 0.001 {
		r := z.Rank(u)
		if r < prev {
			t.Fatalf("Rank not monotone at u=%g: %d after %d", u, r, prev)
		}
		prev = r
	}
	// Uniform exponent spreads mass evenly: rank at u=0.55 of 10 ranks.
	uz, err := NewZipf(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r := uz.Rank(0.55); r != 5 {
		t.Fatalf("uniform Rank(0.55) = %d, want 5", r)
	}
}

// TestZipfSkew draws a long stream and checks the empirical head
// frequency against the analytic cdf — the zipf shape, not just
// validity.
func TestZipfSkew(t *testing.T) {
	vocab := make([]string, 20)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("q%02d", i)
	}
	w, err := NewWorkload(vocab, 1.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 20000
	freq := map[string]int{}
	for i := uint64(0); i < draws; i++ {
		freq[w.Query(i)]++
	}
	if freq["q00"] <= freq["q19"] {
		t.Fatalf("head q00 (%d) not more frequent than tail q19 (%d)", freq["q00"], freq["q19"])
	}
	// Head probability: 1 / sum(k^-1.1 for k=1..20) ≈ 0.318.
	total := 0.0
	for k := 1; k <= 20; k++ {
		total += math.Pow(float64(k), -1.1)
	}
	wantHead := 1 / total
	gotHead := float64(freq["q00"]) / draws
	if math.Abs(gotHead-wantHead) > 0.02 {
		t.Fatalf("head frequency %.3f, analytic %.3f", gotHead, wantHead)
	}
}

// TestWorkloadReplayable: the query stream is a pure function of
// (seed, i) — two workloads with the same seed agree everywhere,
// different seeds diverge, and Query is safe to call out of order.
func TestWorkloadReplayable(t *testing.T) {
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	a, err := NewWorkload(vocab, 1.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWorkload(vocab, 1.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewWorkload(vocab, 1.1, 43)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.queries) != len(vocab) {
		t.Fatalf("NumQueries = %d", len(a.queries))
	}
	diverged := false
	for i := uint64(0); i < 1000; i++ {
		if a.Query(i) != b.Query(i) {
			t.Fatalf("same seed diverged at i=%d", i)
		}
		if a.Query(i) != c.Query(i) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical 1000-query streams")
	}
	// Out-of-order and repeated calls see the same values.
	q500 := a.Query(500)
	a.Query(0)
	a.Query(999)
	if a.Query(500) != q500 {
		t.Fatal("Query(i) not stable across call order")
	}
}
