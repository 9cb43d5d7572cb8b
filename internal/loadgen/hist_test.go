package loadgen

import (
	"testing"
	"time"
)

// TestHistBucketMapping sweeps values across the layout: every value
// lands in a bucket whose upper bound is at least the value, and the
// bucket's slack stays within one sub-bucket width (1/16 relative).
func TestHistBucketMapping(t *testing.T) {
	values := []int64{0, 1, 15, 16, 17, 31, 32, 63, 64, 100, 1000, 1023, 1024,
		999_999, 1_000_000, 1 << 30, (1 << 40) + 12345, 1<<62 + 9}
	for _, v := range values {
		idx := bucketOf(v)
		upper := bucketUpper(idx)
		if upper < v {
			t.Fatalf("value %d: bucket %d upper %d < value", v, idx, upper)
		}
		if v >= 16 && upper-v > v/16+1 {
			t.Fatalf("value %d: bucket %d upper %d overshoots by %d (> 1/16)", v, idx, upper, upper-v)
		}
		if idx > 0 && bucketUpper(idx-1) >= v {
			t.Fatalf("value %d: previous bucket %d already covers it", v, idx-1)
		}
	}
	// Boundaries are monotone and contiguous.
	for idx := 1; idx < histBuckets; idx++ {
		if bucketUpper(idx) <= bucketUpper(idx-1) {
			t.Fatalf("bucket %d upper %d <= bucket %d upper %d",
				idx, bucketUpper(idx), idx-1, bucketUpper(idx-1))
		}
	}
	if bucketOf(-5) != 0 {
		t.Fatal("negative values must clamp to bucket 0")
	}
}

// TestHistQuantile records a known uniform ramp and checks the reported
// quantiles stay within one bucket of the exact order statistics.
func TestHistQuantile(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	const n = 1000
	for i := 1; i <= n; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != n {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != n*time.Microsecond {
		t.Fatalf("max = %v", h.Max())
	}
	checks := []struct {
		q     float64
		exact time.Duration
	}{{0.50, 500 * time.Microsecond}, {0.95, 950 * time.Microsecond}, {0.99, 990 * time.Microsecond}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.exact || got > c.exact+c.exact/8 {
			t.Fatalf("q%.2f = %v, want within [%v, %v]", c.q, got, c.exact, c.exact+c.exact/8)
		}
	}
	if m := h.Mean(); m < 480*time.Microsecond || m > 520*time.Microsecond {
		t.Fatalf("mean = %v, want ~500µs", m)
	}
	// Quantile clamps out-of-range q.
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Fatal("q outside [0,1] must clamp")
	}
}

// TestHistMergeDeterministic: merging any partition of a sample stream
// reproduces the single-recorder histogram exactly — the property that
// makes per-worker recording loss-free.
func TestHistMergeDeterministic(t *testing.T) {
	samples := make([]time.Duration, 0, 3000)
	for i := 0; i < 3000; i++ {
		samples = append(samples, time.Duration((int64(i)*2654435761)%50_000_000))
	}
	var whole Hist
	for _, s := range samples {
		whole.Record(s)
	}
	var parts [3]Hist
	for i, s := range samples {
		parts[i%3].Record(s)
	}
	var merged Hist
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if merged != whole {
		t.Fatal("merged partition differs from single-recorder histogram")
	}
	// Merge order does not matter.
	var reversed Hist
	for i := len(parts) - 1; i >= 0; i-- {
		reversed.Merge(&parts[i])
	}
	if reversed != whole {
		t.Fatal("merge is order-sensitive")
	}
}
