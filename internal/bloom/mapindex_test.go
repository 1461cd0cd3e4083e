package bloom

import (
	"testing"

	"repro/internal/bigraph"
	"repro/internal/bucket"
	"repro/internal/butterfly"
	"repro/internal/testgraphs"
)

// MapIndex is a deliberately straightforward BE-Index implementation:
// the bloom-edge links of E(I) live in hash maps (edge -> bloom ->
// twin and bloom -> edge -> twin) instead of the flat slot arrays of
// Index. It is a test-only oracle: the peel over it must give the same
// bitruss numbers as the flat layout, and because the algorithms are
// identical, the RemoveEdge benchmarks below measure pure
// data-structure overhead (pointer chasing and hashing vs dense scans).
type MapIndex struct {
	sup        []int64
	bloomK     []int32
	edgeBlooms []map[int32]int32 // edge  -> bloom -> twin edge (-1: none indexed)
	bloomEdges []map[int32]int32 // bloom -> edge  -> twin edge
}

// BuildMap constructs a MapIndex over g with the same maximal
// priority-obeyed blooms as Build.
func BuildMap(g *bigraph.Graph) *MapIndex {
	n := int32(g.NumVertices())
	m := g.NumEdges()
	ix := &MapIndex{
		sup:        make([]int64, m),
		edgeBlooms: make([]map[int32]int32, m),
	}
	cnt := make([]int32, n)
	touched := make([]int32, 0, 64)
	for u := int32(0); u < n; u++ {
		ru := g.Rank(u)
		nbrsU, eidsU := g.Neighbors(u)
		touched = touched[:0]
		for _, v := range nbrsU {
			if g.Rank(v) >= ru {
				break
			}
			nbrsV, _ := g.Neighbors(v)
			for _, w := range nbrsV {
				if g.Rank(w) >= ru {
					break
				}
				if cnt[w] == 0 {
					touched = append(touched, w)
				}
				cnt[w]++
			}
		}
		// Allocate blooms for ends with >= 2 wedges, in touched order.
		bloomOf := make(map[int32]int32)
		for _, w := range touched {
			if cnt[w] >= 2 {
				b := int32(len(ix.bloomK))
				ix.bloomK = append(ix.bloomK, cnt[w])
				ix.bloomEdges = append(ix.bloomEdges, make(map[int32]int32, 2*cnt[w]))
				bloomOf[w] = b
			}
		}
		for i, v := range nbrsU {
			if g.Rank(v) >= ru {
				break
			}
			e1 := eidsU[i]
			nbrsV, eidsV := g.Neighbors(v)
			for j, w := range nbrsV {
				if g.Rank(w) >= ru {
					break
				}
				c := cnt[w]
				if c < 2 {
					continue
				}
				b := bloomOf[w]
				e2 := eidsV[j]
				ix.sup[e1] += int64(c - 1)
				ix.sup[e2] += int64(c - 1)
				ix.link(e1, b, e2)
				ix.link(e2, b, e1)
			}
		}
		for _, w := range touched {
			cnt[w] = 0
		}
	}
	return ix
}

func (ix *MapIndex) link(e, b, twin int32) {
	if ix.edgeBlooms[e] == nil {
		ix.edgeBlooms[e] = make(map[int32]int32, 4)
	}
	ix.edgeBlooms[e][b] = twin
	ix.bloomEdges[b][e] = twin
}

// Support returns the current butterfly support of edge e.
func (ix *MapIndex) Support(e int32) int64 { return ix.sup[e] }

// NumBlooms returns the number of blooms.
func (ix *MapIndex) NumBlooms() int { return len(ix.bloomK) }

// RemoveEdge is Algorithm 2 over the map layout, with the same
// clamp-and-notify contract as Index.RemoveEdge.
func (ix *MapIndex) RemoveEdge(e int32, clamp int64, fn UpdateFunc) {
	for b, twin := range ix.edgeBlooms[e] {
		k := ix.bloomK[b]
		delete(ix.bloomEdges[b], e)
		if twin >= 0 {
			delete(ix.bloomEdges[b], twin)
			delete(ix.edgeBlooms[twin], b)
			ix.decreaseMap(twin, int64(k-1), clamp, fn)
		}
		for f := range ix.bloomEdges[b] {
			ix.decreaseMap(f, 1, clamp, fn)
		}
		ix.bloomK[b] = k - 1
	}
	ix.edgeBlooms[e] = nil
}

func (ix *MapIndex) decreaseMap(f int32, delta, clamp int64, fn UpdateFunc) {
	if delta <= 0 {
		return
	}
	s := ix.sup[f]
	if s <= clamp {
		return
	}
	s -= delta
	if s < clamp {
		s = clamp
	}
	ix.sup[f] = s
	if fn != nil {
		fn(f, s)
	}
}

func TestMapIndexFreshSupports(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randomGraph(20, 25, 220, seed)
		ix := BuildMap(g)
		_, want := butterfly.CountAndSupports(g)
		for e := range want {
			if got := ix.Support(int32(e)); got != want[e] {
				t.Errorf("seed %d: support(e%d) = %d, want %d", seed, e, got, want[e])
			}
		}
		if flat := Build(g); flat.NumBlooms() != ix.NumBlooms() {
			t.Errorf("seed %d: map index has %d blooms, flat has %d",
				seed, ix.NumBlooms(), flat.NumBlooms())
		}
	}
}

// peelPhi runs a minimal BiT-BU peel over any index with the
// RemoveEdge contract and returns the bitruss numbers.
type removeEdger interface {
	Support(e int32) int64
	RemoveEdge(e int32, clamp int64, fn UpdateFunc)
}

func peelPhi(m int, ix removeEdger) []int64 {
	vals := make([]int64, m)
	for e := 0; e < m; e++ {
		vals[e] = ix.Support(int32(e))
	}
	q := bucket.New(vals)
	phi := make([]int64, m)
	for q.Len() > 0 {
		e, s := q.PopMin()
		phi[e] = s
		ix.RemoveEdge(e, s, func(f int32, ns int64) { q.Update(f, ns) })
	}
	return phi
}

// TestMapIndexPeelEquivalence: a full bottom-up peel over the map
// layout and the flat layout must yield identical bitruss numbers.
func TestMapIndexPeelEquivalence(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(25, 30, 320, seed)
		flat := peelPhi(g.NumEdges(), Build(g))
		mapped := peelPhi(g.NumEdges(), BuildMap(g))
		for e := range flat {
			if flat[e] != mapped[e] {
				t.Fatalf("seed %d: φ(e%d) = %d (flat) vs %d (map)", seed, e, flat[e], mapped[e])
			}
		}
	}
	// And on the paper's example.
	g := testgraphs.Figure1()
	flat := peelPhi(g.NumEdges(), Build(g))
	mapped := peelPhi(g.NumEdges(), BuildMap(g))
	for e := range flat {
		if flat[e] != mapped[e] {
			t.Fatalf("figure 1: φ(e%d) = %d (flat) vs %d (map)", e, flat[e], mapped[e])
		}
	}
}

func BenchmarkMapIndexRemoveEdgeSequential(b *testing.B) {
	g := randomGraph(800, 900, 20000, 1)
	m := int32(g.NumEdges())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := BuildMap(g)
		b.StartTimer()
		for e := int32(0); e < m; e++ {
			ix.RemoveEdge(e, 0, nil)
		}
	}
}

func BenchmarkFlatIndexRemoveEdgeSequential(b *testing.B) {
	g := randomGraph(800, 900, 20000, 1)
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
