// Package butterfly implements butterfly counting for bipartite graphs.
//
// The core routine is the vertex-priority counting algorithm the paper
// adopts from its reference [8] (Wang et al., PVLDB 2019): every butterfly
// is discovered exactly once from its highest-priority vertex by counting
// priority-obeyed wedges, which costs
// O(Σ_{(u,v)∈E} min{d(u), d(v)}) time in total. The same wedge pass
// yields the global butterfly count ⋈G, the per-edge butterfly supports
// ⋈e, and the per-vertex butterfly counts.
package butterfly

import (
	"runtime"
	"sync"

	"repro/internal/bigraph"
)

// EdgeSupports returns ⋈e for every edge e: the number of butterflies
// ((2,2)-bicliques) containing e.
func EdgeSupports(g *bigraph.Graph) []int64 {
	_, sup := CountAndSupports(g)
	return sup
}

// Count returns ⋈G, the total number of butterflies in g.
func Count(g *bigraph.Graph) int64 {
	return countImpl(g, nil, 1)
}

// CountAndSupports returns ⋈G together with the per-edge supports in a
// single pass over the priority-obeyed wedges, on one goroutine.
func CountAndSupports(g *bigraph.Graph) (int64, []int64) {
	return CountAndSupportsWorkers(g, 1)
}

// CountAndSupportsWorkers is CountAndSupports with the start vertices
// strided across workers goroutines. The fan-out is capped at GOMAXPROCS
// and at |V|, since each worker holds 8·|E| + 4·|V| transient bytes; the
// result is the same for every worker count.
func CountAndSupportsWorkers(g *bigraph.Graph, workers int) (int64, []int64) {
	sup := make([]int64, g.NumEdges())
	total := countImpl(g, sup, workers)
	return total, sup
}

// CountVertices returns ⋈G and the per-vertex butterfly counts (how many
// butterflies contain each vertex).
func CountVertices(g *bigraph.Graph) (int64, []int64) {
	return countVertices(g, true, true)
}

// CountLayerVertices is CountVertices for the vertices of one layer
// (upper = U(G)): ⋈G and that layer's counts are exact, the other
// layer's counts are left zero. It skips the wedge-middle sums of starts
// in the chosen layer and the endpoint sums of starts in the other.
func CountLayerVertices(g *bigraph.Graph, upper bool) (int64, []int64) {
	return countVertices(g, upper, !upper)
}

// countVertices accumulates the counts of the upper and/or lower layer.
// A start u and its wedge ends lie in u's layer, the wedge middles in
// the other.
func countVertices(g *bigraph.Graph, upper, lower bool) (int64, []int64) {
	vcnt := make([]int64, g.NumVertices())
	total := int64(0)

	n := int32(g.NumVertices())
	cnt := make([]int32, n)
	touched := make([]int32, 0, 64)
	for u := int32(0); u < n; u++ {
		touched = WedgeCounts(g, u, cnt, touched[:0])
		ends, mids := lower, upper
		if g.IsUpper(u) {
			ends, mids = upper, lower
		}
		for _, w := range touched {
			c := int64(cnt[w])
			b := c * (c - 1) / 2
			total += b
			if ends {
				vcnt[u] += b
				vcnt[w] += b
			}
		}
		// Each wedge middle v participates in c-1 butterflies of the
		// bloom anchored by (u, w).
		if mids {
			ru := g.Rank(u)
			nbrsU, _ := g.Neighbors(u)
			for _, v := range nbrsU {
				if g.Rank(v) >= ru {
					break
				}
				nbrsV, _ := g.Neighbors(v)
				for _, w := range nbrsV {
					if g.Rank(w) >= ru {
						break
					}
					vcnt[v] += int64(cnt[w] - 1)
				}
			}
		}
		for _, w := range touched {
			cnt[w] = 0
		}
	}
	return total, vcnt
}

// WedgeCounts fills cnt[w] with the number of priority-obeyed wedges
// (u, v, w) for the given start vertex u and returns the list of end
// vertices touched. cnt must be all-zero on entry for the touched set;
// the caller resets it using the returned slice. Every w with
// cnt[w] >= 2 anchors the maximal priority-obeyed bloom {u, w}
// (Lemma 7), so the BE-Index construction runs on this scan too.
func WedgeCounts(g *bigraph.Graph, u int32, cnt []int32, touched []int32) []int32 {
	ru := g.Rank(u)
	nbrsU, _ := g.Neighbors(u)
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
	return touched
}

// countImpl runs the priority-wedge scan once, with the start vertices
// strided across at most workers goroutines: interleaved strides balance
// the skewed work of high-degree vertices better than contiguous blocks.
// Each worker keeps private wedge counts and, after the first, a private
// support accumulator, so the result is deterministic. If sup is non-nil
// it must have length g.NumEdges() and receives the per-edge supports.
func countImpl(g *bigraph.Graph, sup []int64, workers int) int64 {
	n := int32(g.NumVertices())
	nw := max(1, min(workers, runtime.GOMAXPROCS(0), int(n)))
	totals := make([]int64, nw)
	sups := make([][]int64, nw)
	var wg sync.WaitGroup
	for w := 1; w < nw; w++ {
		if sup != nil {
			sups[w] = make([]int64, len(sup))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			totals[w] = countStride(g, int32(w), int32(nw), sups[w])
		}()
	}
	totals[0] = countStride(g, 0, int32(nw), sup)
	wg.Wait()
	total := totals[0]
	for w := 1; w < nw; w++ {
		total += totals[w]
		for e, s := range sups[w] {
			sup[e] += s
		}
	}
	return total
}

// countStride scans the start vertices first, first+stride, ... and
// returns their butterflies; a non-nil sup accumulates their supports.
func countStride(g *bigraph.Graph, first, stride int32, sup []int64) int64 {
	n := int32(g.NumVertices())
	cnt := make([]int32, n)
	touched := make([]int32, 0, 64)
	total := int64(0)
	for u := first; u < n; u += stride {
		touched = WedgeCounts(g, u, cnt, touched[:0])
		for _, w := range touched {
			c := int64(cnt[w])
			total += c * (c - 1) / 2
		}
		if sup != nil {
			ru := g.Rank(u)
			nbrsU, eidsU := g.Neighbors(u)
			for i, v := range nbrsU {
				if g.Rank(v) >= ru {
					break
				}
				euv := eidsU[i]
				nbrsV, eidsV := g.Neighbors(v)
				for j, w := range nbrsV {
					if g.Rank(w) >= ru {
						break
					}
					if c := cnt[w]; c > 1 {
						sup[euv] += int64(c - 1)
						sup[eidsV[j]] += int64(c - 1)
					}
				}
			}
		}
		for _, w := range touched {
			cnt[w] = 0
		}
	}
	return total
}

// KMax returns the largest possible bitruss number bound used by BiT-PC
// (Section V-C): the largest integer k such that at least k edges have
// butterfly support >= k. It runs in O(m) with a counting argument.
func KMax(sup []int64) int64 {
	m := int64(len(sup))
	if m == 0 {
		return 0
	}
	// h-index via bucket counting, clamping supports at m (a support
	// beyond m cannot raise the h-index above m).
	buckets := make([]int64, m+1)
	for _, s := range sup {
		if s >= m {
			buckets[m]++
		} else if s > 0 {
			buckets[s]++
		}
	}
	cum := int64(0)
	for k := m; k >= 1; k-- {
		cum += buckets[k]
		if cum >= k {
			return k
		}
	}
	return 0
}
