package pagestore

import (
	"fmt"
	"math/rand"
	"testing"
)

// buildBenchStore writes a corpus that rotates through many segments of
// ~segBytes each; rounds past the second overwrite keys, so Open's merge
// has superseded versions to resolve. Bodies are incompressible so the
// on-disk size tracks the write volume.
func buildBenchStore(b *testing.B, dir string, segBytes int64, nKeys, rounds int) {
	b.Helper()
	s, err := Open(dir, Options{MaxSegmentBytes: segBytes})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	body := make([]byte, 4096)
	for r := 0; r < rounds; r++ {
		for i := 0; i < nKeys; i++ {
			rng.Read(body)
			key := fmt.Sprintf("t%d/site-%04d/page", r%2+1, i)
			if err := s.Put(key, Meta{FetchedAt: float64(r), Status: 200}, body); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		b.Fatal(err)
	}
	if len(segs) < 8 {
		b.Fatalf("bench store built only %d segments; want >= 8", len(segs))
	}
}

// BenchmarkOpen measures the cold-start index rebuild on a multi-segment
// corpus — the tax qualityserve pays on every restart. The footered
// sub-benchmark indexes sealed segments from their footers (two small
// reads each); fullscan strips the footers first, forcing the legacy
// whole-file replay the seed store always paid.
func BenchmarkOpen(b *testing.B) {
	run := func(b *testing.B, strip bool) {
		dir := b.TempDir()
		buildBenchStore(b, dir, 1<<20, 512, 5)
		if strip {
			stripFooters(b, dir)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("footered", func(b *testing.B) { run(b, false) })
	b.Run("fullscan", func(b *testing.B) { run(b, true) })
}
