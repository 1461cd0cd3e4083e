package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bigraph"
	"repro/internal/gen"
)

// The maintenance benchmark graph: ~60k edges of a KONECT-style sparse
// user–item stream (uniform random, average degree ~12), the regime
// streaming updates live in.
const (
	benchUpper = 5000
	benchLower = 5000
	benchDraws = 61500
	benchSeed  = 42
)

var benchState struct {
	once sync.Once
	g    *bigraph.Graph
	res  *Result
}

func benchBase(tb testing.TB) (*bigraph.Graph, *Result) {
	benchState.once.Do(func() {
		benchState.g = gen.Uniform(benchUpper, benchLower, benchDraws, benchSeed)
		res, err := Decompose(benchState.g, Options{Algorithm: BiTBUPlusPlus})
		if err != nil {
			tb.Fatal(err)
		}
		benchState.res = res
	})
	return benchState.g, benchState.res
}

// benchDelta builds a deterministic mutation of the given batch size:
// half inserts of fresh pairs, half deletes of existing edges.
func benchDelta(g *bigraph.Graph, size int, seed int64) *bigraph.Delta {
	rng := rand.New(rand.NewSource(seed))
	d := bigraph.NewDelta(g)
	nl := g.NumLower()
	for d.Deletes() < (size+1)/2 {
		ed := g.Edge(int32(rng.Intn(g.NumEdges())))
		d.Delete(int(ed.U)-nl, int(ed.V))
	}
	for d.Inserts() < size/2 && size > 1 {
		d.Insert(rng.Intn(g.NumUpper()), rng.Intn(g.NumLower()))
	}
	return d
}

// BenchmarkDecompose is the full-recomputation baseline every mutation
// would pay without Maintain.
func BenchmarkDecompose(b *testing.B) {
	g, _ := benchBase(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(g, Options{Algorithm: BiTBUPlusPlus}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaintain measures the incremental path for 1/10/100-edge
// batches against the 60k-edge graph (delta application measured
// separately by BenchmarkDeltaApply, as the engine pays both).
func BenchmarkMaintain(b *testing.B) {
	g, res := benchBase(b)
	for _, size := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			g2, rm, err := benchDelta(g, size, int64(size)).Apply()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Maintain(g, res, g2, rm, MaintainOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeltaApply isolates the graph-rebuild cost of a mutation.
func BenchmarkDeltaApply(b *testing.B) {
	g, _ := benchBase(b)
	for _, size := range []int{1, 100} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			d := benchDelta(g, size, int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := d.Apply(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
