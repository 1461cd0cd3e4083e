package bloom

import (
	"fmt"
	"testing"

	"repro/internal/butterfly"
	"repro/internal/gen"
)

// Micro-benchmarks for the BE-Index: construction cost (Algorithm 3 vs
// the compressed Algorithm 6, at 1, 2 and 4 chunks of start vertices)
// and the edge removal operation that the index exists to accelerate
// (Algorithm 2 vs the combination-based enumeration it replaces,
// measured end-to-end in the core package).

func BenchmarkIndexConstruction(b *testing.B) {
	g := gen.Zipf(8000, 9000, 120000, 1.2, 1.1, 1)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix := BuildCompressed(g, nil, workers)
				b.ReportMetric(float64(ix.SizeBytes())/(1<<20), "MB-index")
			}
		})
	}
}

func BenchmarkCompressedIndexConstruction(b *testing.B) {
	g := gen.Zipf(8000, 9000, 120000, 1.2, 1.1, 1)
	// Mark the top half of the edges (by support) assigned, as a midway
	// BiT-PC iteration would.
	_, sup := butterfly.CountAndSupports(g)
	assigned := make([]bool, g.NumEdges())
	var maxSup int64
	for _, s := range sup {
		if s > maxSup {
			maxSup = s
		}
	}
	for e, s := range sup {
		assigned[e] = s > maxSup/8
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := BuildCompressed(g, assigned, 1)
		b.ReportMetric(float64(ix.SizeBytes())/(1<<20), "MB-index")
	}
}

func BenchmarkRemoveEdgeSequential(b *testing.B) {
	g := gen.Zipf(3000, 3500, 40000, 1.2, 1.1, 1)
	m := int32(g.NumEdges())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := Build(g)
		b.StartTimer()
		for e := int32(0); e < m; e++ {
			ix.RemoveEdge(e, 0, nil)
		}
	}
}

func BenchmarkRemoveBatchWholeGraph(b *testing.B) {
	g := gen.Zipf(3000, 3500, 40000, 1.2, 1.1, 1)
	batch := make([]int32, g.NumEdges())
	for e := range batch {
		batch[e] = int32(e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := Build(g)
		b.StartTimer()
		ix.RemoveBatch(batch, 0, nil)
	}
}
