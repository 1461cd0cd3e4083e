package butterfly

import (
	"math/rand"
	"sync"

	"repro/internal/bigraph"
)

// EdgeSupport computes ⋈e for a single edge e = (u, v) exactly, in
// O(d(u) + Σ_{w ∈ N(v)} d(w)) time: for every wedge (u, v, w) the
// butterflies through e and w are the common neighbours of u and w
// other than v itself.
func EdgeSupport(g *bigraph.Graph, e int32) int64 {
	ed := g.Edge(e)
	u, v := ed.U, ed.V
	if g.Degree(u) < g.Degree(v) {
		// Walking the sparser side's two-hop neighbourhood is cheaper;
		// the butterfly count is symmetric.
		u, v = v, u
	}
	// Single-edge queries must not allocate proportionally to |V|: a
	// dense mark bitmap is only worth it on small graphs, otherwise the
	// mark set is a map sized to d(u).
	if g.NumVertices() <= denseMarkLimit {
		return edgeSupportDense(g, u, v)
	}
	return edgeSupportSparse(g, u, v)
}

// denseMarkLimit bounds the dense-bitmap path of EdgeSupport; above it
// the allocation cost of the bitmap dominates a typical query.
const denseMarkLimit = 1 << 12

func edgeSupportDense(g *bigraph.Graph, u, v int32) int64 {
	mark := make([]bool, g.NumVertices())
	nbrsU, _ := g.Neighbors(u)
	for _, x := range nbrsU {
		mark[x] = true
	}
	var sup int64
	nbrsV, _ := g.Neighbors(v)
	for _, w := range nbrsV {
		if w == u {
			continue
		}
		nbrsW, _ := g.Neighbors(w)
		for _, x := range nbrsW {
			if x != v && mark[x] {
				sup++
			}
		}
	}
	return sup
}

// sparseMarkPool recycles the mark sets of edgeSupportSparse across
// calls (the serving path issues one per /support query on a large,
// undecomposed graph): like the WedgeCounts scratch of the counting
// kernels, the map is cleared and reused instead of reallocated.
var sparseMarkPool = sync.Pool{New: func() any {
	return make(map[int32]struct{}, 64)
}}

// maxPooledMarkEntries drops maps that one hub-vertex query grew huge
// instead of pooling them: Go maps never shrink, so returning a
// 100k-bucket map would pin its memory for the process lifetime while
// typical queries need tens of entries.
const maxPooledMarkEntries = 1 << 14

func edgeSupportSparse(g *bigraph.Graph, u, v int32) int64 {
	nbrsU, _ := g.Neighbors(u)
	mark := sparseMarkPool.Get().(map[int32]struct{})
	for _, x := range nbrsU {
		mark[x] = struct{}{}
	}
	var sup int64
	nbrsV, _ := g.Neighbors(v)
	for _, w := range nbrsV {
		if w == u {
			continue
		}
		nbrsW, _ := g.Neighbors(w)
		for _, x := range nbrsW {
			if x == v {
				continue
			}
			if _, ok := mark[x]; ok {
				sup++
			}
		}
	}
	if len(mark) <= maxPooledMarkEntries {
		clear(mark)
		sparseMarkPool.Put(mark)
	}
	return sup
}

// ApproxCount estimates ⋈G by uniform edge sampling, the sparsification
// idea of the paper's related work [7] (Sanei-Mehri et al., KDD 2018):
// each butterfly contains exactly 4 edges, so ⋈G = Σ_e ⋈e / 4, and a
// uniform sample of edges gives the unbiased estimator
// (m / s) · Σ_{sampled} ⋈e / 4.
//
// samples >= m degrades to the exact count. The estimate is
// deterministic for a fixed seed.
func ApproxCount(g *bigraph.Graph, samples int, seed int64) int64 {
	m := g.NumEdges()
	if m == 0 || samples <= 0 {
		return 0
	}
	if samples >= m {
		return Count(g)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(m)
	var sum int64
	for _, e := range perm[:samples] {
		sum += EdgeSupport(g, int32(e))
	}
	// Scale by m/samples and divide by the 4 edges per butterfly,
	// rounding to the nearest integer.
	return (sum*int64(m) + 2*int64(samples)) / (4 * int64(samples))
}
