package pagerank

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"pagequality/internal/graph"
)

func cycle(n int) *graph.CSR {
	g := graph.New(n)
	g.AddNodes(n)
	for i := 0; i < n; i++ {
		g.AddLink(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	return graph.Freeze(g)
}

// denseReference computes standard PageRank by explicit dense matrix power
// iteration with the DanglingUniform policy; it is the oracle for the
// optimised implementation.
func denseReference(c *graph.CSR, jump float64, iters int) []float64 {
	n := c.NumNodes()
	cur := make([]float64, n)
	for i := range cur {
		cur[i] = 1 / float64(n)
	}
	next := make([]float64, n)
	for it := 0; it < iters; it++ {
		dmass := 0.0
		for i := 0; i < n; i++ {
			if c.OutDegree(graph.NodeID(i)) == 0 {
				dmass += cur[i]
			}
		}
		for i := 0; i < n; i++ {
			sum := dmass / float64(n)
			for _, j := range c.In(graph.NodeID(i)) {
				sum += cur[j] / float64(c.OutDegree(j))
			}
			next[i] = jump/float64(n) + (1-jump)*sum
		}
		cur, next = next, cur
	}
	return cur
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if x := math.Abs(a[i] - b[i]); x > d {
			d = x
		}
	}
	return d
}

func TestCycleIsUniform(t *testing.T) {
	c := cycle(10)
	res, err := Compute(c, Options{Variant: VariantStandard})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: delta=%g after %d iters", res.Delta, res.Iterations)
	}
	for i, v := range res.Rank {
		if math.Abs(v-0.1) > 1e-8 {
			t.Fatalf("rank[%d] = %g, want 0.1", i, v)
		}
	}
}

func TestPaperVariantScale(t *testing.T) {
	c := cycle(10)
	res, err := Compute(c, Options{Variant: VariantPaper})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range res.Rank {
		sum += v
		if v < 0.15-1e-12 {
			t.Fatalf("paper-variant rank %g below damping floor", v)
		}
	}
	if math.Abs(sum-10) > 1e-6 {
		t.Fatalf("paper-variant sum = %g, want 10", sum)
	}
	// On a symmetric cycle every page has PR exactly 1.
	for i, v := range res.Rank {
		if math.Abs(v-1) > 1e-8 {
			t.Fatalf("rank[%d] = %g, want 1", i, v)
		}
	}
}

func TestStandardSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g, err := graph.GeneratePreferentialAttachment(graph.PreferentialAttachmentConfig{Nodes: 500, OutPerNode: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := graph.Freeze(g)
	res, err := Compute(c, Options{Variant: VariantStandard})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range res.Rank {
		sum += v
		if v < 0 {
			t.Fatalf("negative rank %g", v)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum = %g, want 1", sum)
	}
}

func TestMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g, err := graph.GenerateUniform(80, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := graph.Freeze(g)
	want := denseReference(c, 0.15, 300)
	res, err := Compute(c, Options{Variant: VariantStandard, Tol: 1e-13, MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Rank, want); d > 1e-9 {
		t.Fatalf("diff from dense reference = %g", d)
	}
}

func TestHubGetsMoreRank(t *testing.T) {
	// star: nodes 1..9 all link to 0; 0 links to 1.
	g := graph.New(10)
	g.AddNodes(10)
	for i := 1; i < 10; i++ {
		g.AddLink(graph.NodeID(i), 0)
	}
	g.AddLink(0, 1)
	res, err := Compute(graph.Freeze(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		if res.Rank[0] <= res.Rank[i] {
			t.Fatalf("hub rank %g not above leaf %d rank %g", res.Rank[0], i, res.Rank[i])
		}
	}
	// Node 1 receives the hub's whole out-flow: must beat nodes 2..9.
	for i := 2; i < 10; i++ {
		if res.Rank[1] <= res.Rank[i] {
			t.Fatalf("rank[1]=%g not above rank[%d]=%g", res.Rank[1], i, res.Rank[i])
		}
	}
}

func TestOptionValidation(t *testing.T) {
	c := cycle(4)
	for _, tc := range []struct {
		name    string
		opts    Options
		wantErr bool
	}{
		{"negative jump", Options{Jump: -0.5}, true},
		{"jump above one", Options{Jump: 1.5}, true},
		{"negative tol", Options{Tol: -1}, true},
		{"negative maxiter", Options{MaxIter: -3}, true},
		{"unknown variant", Options{Variant: Variant(9)}, true},
		{"defaults", Options{}, false},
		{"extrapolation on", Options{Extrapolate: true}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compute(c, tc.opts)
			if tc.wantErr && !errors.Is(err, ErrBadOptions) {
				t.Fatalf("options %+v accepted (err=%v)", tc.opts, err)
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("options %+v rejected: %v", tc.opts, err)
			}
		})
	}
}

// danglyGraph is a preferential-attachment graph with extra guaranteed
// dangling nodes (in-links only), so there is dangling mass to
// redistribute.
func danglyGraph(t testing.TB, nodes, extraDangling int, seed int64) *graph.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := graph.GeneratePreferentialAttachment(
		graph.PreferentialAttachmentConfig{Nodes: nodes, OutPerNode: 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	first := graph.NodeID(g.NumNodes())
	g.AddNodes(extraDangling)
	for i := 0; i < extraDangling; i++ {
		g.AddLink(graph.NodeID(rng.Intn(nodes)), first+graph.NodeID(i))
	}
	return graph.Freeze(g)
}

// normalized returns v scaled to sum 1, so vectors from different
// variants compare on one scale.
func normalized(v []float64) []float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x / sum
	}
	return out
}

// TestKernelsMatchReference checks the kernel against the retained naive
// implementation: for both variants the converged sum-1 vectors must agree
// to 1e-12.
func TestKernelsMatchReference(t *testing.T) {
	c := danglyGraph(t, 2000, 60, 7)
	for _, variant := range []Variant{VariantPaper, VariantStandard} {
		t.Run(fmt.Sprintf("variant=%d", variant), func(t *testing.T) {
			opts := Options{Variant: variant, Tol: 1e-13, MaxIter: 1000}
			fast, err := Compute(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := ComputeReference(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !fast.Converged || !ref.Converged {
				t.Fatalf("convergence: fast=%v ref=%v", fast.Converged, ref.Converged)
			}
			if d := maxAbsDiff(normalized(fast.Rank), normalized(ref.Rank)); d > 1e-12 {
				t.Fatalf("kernel diverges from reference by %g", d)
			}
		})
	}
}

// TestComputeDeterministicAcrossWorkers exercises the chunked worker pool
// (run it under -race) and checks the guarantee that parallelism never
// changes the result: the per-chunk reductions combine identically for
// every Workers setting, so the ranks must match bitwise and the
// iteration counts exactly.
func TestComputeDeterministicAcrossWorkers(t *testing.T) {
	c := danglyGraph(t, 5000, 100, 11)
	workerSets := []int{1, 4, runtime.GOMAXPROCS(0)}
	var baseline *Result
	for _, w := range workerSets {
		res, err := Compute(c, Options{Workers: w, Tol: 1e-11})
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = res
			continue
		}
		if res.Iterations != baseline.Iterations {
			t.Fatalf("workers=%d: %d iterations, want %d", w, res.Iterations, baseline.Iterations)
		}
		for i := range res.Rank {
			if res.Rank[i] != baseline.Rank[i] { //pqlint:allow floateq worker-count bitwise parity is the property under test
				t.Fatalf("workers=%d: rank[%d] = %g differs from workers=%d value %g",
					w, i, res.Rank[i], workerSets[0], baseline.Rank[i])
			}
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	res, err := Compute(graph.Freeze(graph.New(0)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rank) != 0 || !res.Converged {
		t.Fatalf("empty graph result = %+v", res)
	}
}

func TestAllDanglingGraph(t *testing.T) {
	g := graph.New(5)
	g.AddNodes(5) // no edges at all
	res, err := Compute(graph.Freeze(g), Options{Variant: VariantStandard})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Rank {
		if math.Abs(v-0.2) > 1e-9 {
			t.Fatalf("rank[%d] = %g, want uniform 0.2", i, v)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := graph.GeneratePreferentialAttachment(graph.PreferentialAttachmentConfig{Nodes: 2000, OutPerNode: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := graph.Freeze(g)
	serial, err := Compute(c, Options{Workers: 1, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Compute(c, Options{Workers: 8, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(serial.Rank, parallel.Rank); d > 1e-12 {
		t.Fatalf("parallel differs from serial by %g", d)
	}
	if serial.Iterations != parallel.Iterations {
		t.Fatalf("iteration counts differ: %d vs %d", serial.Iterations, parallel.Iterations)
	}
}

func TestMoreWorkersThanNodes(t *testing.T) {
	c := cycle(3)
	res, err := Compute(c, Options{Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge with workers > nodes")
	}
}

func TestExtrapolationReachesSameFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g, err := graph.GeneratePreferentialAttachment(graph.PreferentialAttachmentConfig{Nodes: 1000, OutPerNode: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := graph.Freeze(g)
	plain, err := Compute(c, Options{Tol: 1e-12, MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Compute(c, Options{Tol: 1e-12, MaxIter: 500, Extrapolate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Converged {
		t.Fatal("extrapolated run did not converge")
	}
	if d := maxAbsDiff(plain.Rank, fast.Rank); d > 1e-8 {
		t.Fatalf("extrapolated fixed point differs by %g", d)
	}
}

func TestConvergenceReporting(t *testing.T) {
	c := cycle(50)
	res, err := Compute(c, Options{MaxIter: 2, Tol: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	// A cycle from uniform start converges instantly, so pick an asymmetric
	// graph for the non-convergence check.
	g := graph.New(3)
	g.AddNodes(3)
	g.AddLink(0, 1)
	g.AddLink(1, 2)
	g.AddLink(2, 0)
	g.AddLink(0, 2)
	res, err = Compute(graph.Freeze(g), Options{MaxIter: 1, Tol: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("claimed convergence after 1 iteration at 1e-15 tol")
	}
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d, want 1", res.Iterations)
	}
}

// Property: for random graphs, standard PageRank is a probability
// distribution and every entry is at least the teleport floor.
func TestQuickDistributionInvariant(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%50) + 5
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.GenerateUniform(n, n*2, rng)
		if err != nil {
			return false
		}
		res, err := Compute(graph.Freeze(g), Options{Variant: VariantStandard})
		if err != nil {
			return false
		}
		sum := 0.0
		floor := 0.15 / float64(n)
		for _, v := range res.Rank {
			if v < floor-1e-12 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHITSAuthority(t *testing.T) {
	// 0,1,2 all point to 3 and 4; 3 also points to 4.
	g := graph.New(5)
	g.AddNodes(5)
	for i := 0; i < 3; i++ {
		g.AddLink(graph.NodeID(i), 3)
		g.AddLink(graph.NodeID(i), 4)
	}
	g.AddLink(3, 4)
	res := HITS(graph.Freeze(g))
	if !res.Converged {
		t.Fatal("HITS did not converge")
	}
	// 4 has the most/best in-links: top authority.
	for i := 0; i < 4; i++ {
		if res.Authorities[4] <= res.Authorities[i] {
			t.Fatalf("authority[4]=%g not maximal vs [%d]=%g", res.Authorities[4], i, res.Authorities[i])
		}
	}
	// 0..2 are the hubs; node 4 (no out-links) must have zero hub score.
	if res.Hubs[4] != 0 {
		t.Fatalf("hub[4] = %g, want 0", res.Hubs[4])
	}
	for i := 0; i < 3; i++ {
		if res.Hubs[i] <= res.Hubs[3] {
			t.Fatalf("hub[%d]=%g not above hub[3]=%g", i, res.Hubs[i], res.Hubs[3])
		}
	}
}

func TestHITSEmpty(t *testing.T) {
	if res := HITS(graph.Freeze(graph.New(0))); !res.Converged || len(res.Authorities) != 0 {
		t.Fatalf("empty HITS = %+v", res)
	}
}

func TestInDegreeBaselines(t *testing.T) {
	g := graph.New(3)
	g.AddNodes(3)
	g.AddLink(0, 2)
	g.AddLink(1, 2)
	c := graph.Freeze(g)
	raw := InDegree(c)
	if raw[2] != 2 || raw[0] != 0 {
		t.Fatalf("InDegree = %v", raw)
	}
}

func BenchmarkPageRank10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := graph.GeneratePreferentialAttachment(graph.PreferentialAttachmentConfig{Nodes: 10000, OutPerNode: 6}, rng)
	if err != nil {
		b.Fatal(err)
	}
	c := graph.Freeze(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(c, Options{Tol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageRankExtrapolated10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := graph.GeneratePreferentialAttachment(graph.PreferentialAttachmentConfig{Nodes: 10000, OutPerNode: 6}, rng)
	if err != nil {
		b.Fatal(err)
	}
	c := graph.Freeze(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(c, Options{Tol: 1e-8, Extrapolate: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHITS10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := graph.GeneratePreferentialAttachment(graph.PreferentialAttachmentConfig{Nodes: 10000, OutPerNode: 6}, rng)
	if err != nil {
		b.Fatal(err)
	}
	c := graph.Freeze(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HITS(c)
	}
}

// rankCRC folds the exact bits of v into one number, so a pin fails on a
// change in the last place of any entry.
func rankCRC(v []float64) uint32 {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return crc32.ChecksumIEEE(buf)
}

// TestComputeBitsPinned holds Compute to the exact bits it produced before
// the dangling/teleport options and their five kernels were deleted: the
// cold values below were captured at that parent commit, and every
// experiment, command and benchmark rides this path. ComputeIncremental
// is a checked Compute call, so its pin is cold Compute(cur)'s CRC and
// iteration count, captured before the residual-push frontier was deleted.
func TestComputeBitsPinned(t *testing.T) {
	c := danglyGraph(t, 5000, 100, 11)
	for _, tc := range []struct {
		name    string
		variant Variant
		crc     uint32
		iters   int
	}{
		{"paper", VariantPaper, 0xf9c0df17, 15},
		{"standard", VariantStandard, 0xb2dfe1bc, 15},
	} {
		res, err := Compute(c, Options{Variant: tc.variant})
		if err != nil {
			t.Fatal(err)
		}
		if got := rankCRC(res.Rank); got != tc.crc || res.Iterations != tc.iters {
			t.Errorf("%s: crc %#08x after %d iterations, want %#08x after %d",
				tc.name, got, res.Iterations, tc.crc, tc.iters)
		}
	}

	old, cur := churnGraphs(t, 2000, 20, 40, 20, 11)
	d, err := graph.Diff(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := Compute(old, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := ComputeIncremental(cur, prev.Rank, d, IncrementalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const wantCRC, wantIters = uint32(0xed03bb6c), 18
	if got := rankCRC(inc.Rank); got != wantCRC || inc.Iterations != wantIters {
		t.Errorf("incremental: crc %#08x after %d iterations, want %#08x after %d",
			got, inc.Iterations, wantCRC, wantIters)
	}
}
