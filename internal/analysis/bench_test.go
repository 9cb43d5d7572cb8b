package analysis_test

import (
	"path/filepath"
	"testing"

	"pagequality/internal/analysis"
)

// BenchmarkLoadModule times the load-and-type-check phase on the real
// repository module: plain is the library-only scope, tests the default
// one with every test variant and external test package. Both include the
// `go list -export` run against a warm build cache.
func BenchmarkLoadModule(b *testing.B) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		b.Fatal(err)
	}
	for _, tests := range []bool{false, true} {
		name := "plain"
		if tests {
			name = "tests"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pkgs, err := analysis.LoadModule(root, tests)
				if err != nil {
					b.Fatal(err)
				}
				if len(pkgs) < 20 {
					b.Fatalf("suspiciously few packages: %d", len(pkgs))
				}
			}
		})
	}
}

// BenchmarkRunAnalyzers times the analysis phase alone — all nine rules
// over a pre-loaded module — separating rule cost from loader cost.
func BenchmarkRunAnalyzers(b *testing.B) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := analysis.LoadModule(root, true)
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
