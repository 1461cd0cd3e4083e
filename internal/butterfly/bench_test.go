package butterfly

import (
	"fmt"
	"testing"

	"repro/internal/gen"
)

// Micro-benchmarks for the counting substrate: the vertex-priority
// algorithm at 1, 2 and 4 workers (cf. the paper's reference [26]), and
// the brute-force oracle.

func BenchmarkCountAndSupports(b *testing.B) {
	g := gen.Zipf(8000, 9000, 120000, 1.2, 1.1, 1)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				CountAndSupportsWorkers(g, workers)
			}
		})
	}
}

func BenchmarkBruteForceCountSmall(b *testing.B) {
	g := gen.Uniform(60, 70, 900, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BruteForceCount(g)
	}
}
