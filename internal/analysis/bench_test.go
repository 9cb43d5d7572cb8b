package analysis_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"pagequality/internal/analysis"
)

// BenchmarkLoadModule times the load-and-type-check phase on the real
// repository module, tests included, at worker counts 1 and GOMAXPROCS
// plus an oversubscribed count. On a single-vCPU box the parallel
// schedule cannot beat serial on CPU-bound checking; what the comparison
// pins is that extra workers cost nothing (the wave scheduler degrades
// to serial) while multi-core machines get the import-DAG parallelism
// for free.
func BenchmarkLoadModule(b *testing.B) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		b.Fatal(err)
	}
	// The plain=workers=1 case matches the scope of the pre-framework
	// serial loader (no _test.go files), so it is the before/after axis;
	// the tests=... cases price the new default scope.
	bench := func(name string, opts analysis.LoadOptions) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pkgs, err := analysis.LoadModule(root, opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(pkgs) < 20 {
					b.Fatalf("suspiciously few packages: %d", len(pkgs))
				}
			}
		})
	}
	bench("plain/workers=1", analysis.LoadOptions{Tests: false, Workers: 1})
	seen := map[int]bool{}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0), 4} {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		bench(fmt.Sprintf("tests/workers=%d", workers), analysis.LoadOptions{Tests: true, Workers: workers})
	}
}

// BenchmarkRunAnalyzers times the analysis phase alone — all nine rules
// over a pre-loaded module — separating rule cost from loader cost.
func BenchmarkRunAnalyzers(b *testing.B) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := analysis.LoadModule(root, analysis.LoadOptions{Tests: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diags := analysis.RunAnalyzers(pkgs, analysis.Analyzers())
		for _, d := range diags {
			if !d.Suppressed {
				b.Fatalf("un-suppressed diagnostic: %s", d)
			}
		}
	}
}
