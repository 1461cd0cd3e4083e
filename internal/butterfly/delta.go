package butterfly

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bigraph"
)

// This file implements delta butterfly counting for incremental bitruss
// maintenance: instead of recounting every edge's support after a batch
// of edge insertions or deletions, only the butterflies that contain at
// least one batch edge are enumerated — everything else is unchanged.
//
// The key accounting identity: a butterfly created by an insertion
// batch contains at least one inserted edge (in the post-batch graph),
// and a butterfly destroyed by a deletion batch contains at least one
// deleted edge (in the pre-batch graph), so
//
//	sup_new(e) = sup_old(e) − |{B ∋ e : B ∩ deleted ≠ ∅}| (counted in G_old)
//	                        + |{B ∋ e : B ∩ inserted ≠ ∅}| (counted in G_new)
//
// and the two terms never overlap because no butterfly of G_old
// contains an inserted edge and no butterfly of G_new contains a
// deleted edge.

// parallelDeltaMinBatch is the batch size below which DeltaSupportsDense
// runs on one goroutine: sharding a handful of edges across goroutines
// costs more than the enumeration itself.
const parallelDeltaMinBatch = 16

// DeltaSupportsDense returns, for every edge of g, the number of
// butterflies that contain both the edge and at least one edge of
// batch — each such butterfly enumerated exactly once overall, from its
// smallest batch edge id — as a dense per-edge array: delta[e] is the
// count (0 for untouched edges), touched lists the edges with
// delta[e] > 0 in unspecified order, and total is the number of such
// butterflies. Cost: O(Σ_{(u,v)∈batch} Σ_{w∈N(v)} d(w)), independent
// of the graph's total butterfly count. The dense layout trades O(|E|)
// memory for O(1) increments and lookups: incremental maintenance reads
// the result once per surviving edge.
//
// workers <= 0 selects GOMAXPROCS. With more than one worker the batch
// is sharded (strided) across goroutines that share delta and claim
// first-touch via the atomic increment's return value (counts only
// ever grow, so the 0→1 transition is seen by exactly one worker);
// per-worker touched shards are concatenated. The min-batch-edge rule
// makes the shard assignment irrelevant and summation commutes, so the
// result is identical for every worker count and interleaving.
func DeltaSupportsDense(g *bigraph.Graph, batch []int32, workers int) (delta []int64, touched []int32, total int64) {
	m := g.NumEdges()
	delta = make([]int64, m)
	if len(batch) == 0 {
		return delta, nil, 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if mx := runtime.GOMAXPROCS(0); workers > mx {
		workers = mx
	}
	if workers > len(batch) {
		workers = len(batch)
	}
	inBatch := make([]bool, m)
	for _, e := range batch {
		inBatch[e] = true
	}
	if workers <= 1 || len(batch) < parallelDeltaMinBatch {
		mark := make([]int32, g.NumVertices())
		for i := range mark {
			mark[i] = -1
		}
		for _, e := range batch {
			total += deltaDenseOfEdge(g, e, inBatch, mark, delta, &touched)
		}
		return delta, touched, total
	}

	shards := make([][]int32, workers)
	totals := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mark := make([]int32, g.NumVertices())
			for i := range mark {
				mark[i] = -1
			}
			var sub int64
			for j := w; j < len(batch); j += workers {
				sub += deltaDenseOfEdgeAtomic(g, batch[j], inBatch, mark, delta, &shards[w])
			}
			totals[w] = sub
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		touched = append(touched, shards[w]...)
		total += totals[w]
	}
	return delta, touched, total
}

// deltaDenseOfEdge accumulates the butterflies attributed to batch
// edge e into delta (single-writer: plain increments).
func deltaDenseOfEdge(g *bigraph.Graph, e int32, inBatch []bool, mark []int32, delta []int64, touched *[]int32) int64 {
	bump := func(f int32) {
		if delta[f] == 0 {
			*touched = append(*touched, f)
		}
		delta[f]++
	}
	return deltaScanOfEdge(g, e, inBatch, mark, bump)
}

// deltaDenseOfEdgeAtomic is the shared-array variant: the atomic
// increment's return value elects exactly one first-toucher per edge.
func deltaDenseOfEdgeAtomic(g *bigraph.Graph, e int32, inBatch []bool, mark []int32, delta []int64, touched *[]int32) int64 {
	bump := func(f int32) {
		if atomic.AddInt64(&delta[f], 1) == 1 {
			*touched = append(*touched, f)
		}
	}
	return deltaScanOfEdge(g, e, inBatch, mark, bump)
}

// deltaScanOfEdge is the wedge-scan skeleton shared by the dense
// accumulators: it enumerates the butterflies attributed to batch edge
// e (min-batch-edge dedup) and calls bump for each of the four member
// edges of every such butterfly, returning the butterfly count.
func deltaScanOfEdge(g *bigraph.Graph, e int32, inBatch []bool, mark []int32, bump func(int32)) int64 {
	ed := g.Edge(e)
	u, v := ed.U, ed.V
	if g.Degree(u) > g.Degree(v) {
		// Enumeration cost is Σ_{w∈N(v)} d(w): pivot on the sparser
		// endpoint's wedges (the count is symmetric).
		u, v = v, u
	}
	nbrsU, eidsU := g.Neighbors(u)
	for i, x := range nbrsU {
		if x != v {
			mark[x] = eidsU[i]
		}
	}
	var total int64
	nbrsV, eidsV := g.Neighbors(v)
	for j, w := range nbrsV {
		if w == u {
			continue
		}
		ewv := eidsV[j]
		nbrsW, eidsW := g.Neighbors(w)
		for l, x := range nbrsW {
			if x == v {
				continue
			}
			eux := mark[x]
			if eux < 0 {
				continue
			}
			ewx := eidsW[l]
			// Butterfly {e, eux, ewv, ewx}: count it only from its
			// smallest batch edge so multi-batch-edge butterflies
			// are not double-counted.
			if (inBatch[eux] && eux < e) || (inBatch[ewv] && ewv < e) || (inBatch[ewx] && ewx < e) {
				continue
			}
			total++
			bump(e)
			bump(eux)
			bump(ewv)
			bump(ewx)
		}
	}
	for _, x := range nbrsU {
		mark[x] = -1
	}
	return total
}

// hIndexOf computes the h-index of the weakest-member supports via
// bucket counting: the largest k with at least k entries >= k.
func hIndexOf(mins []int64) int64 {
	n := int64(len(mins))
	if n == 0 {
		return 0
	}
	buckets := make([]int64, n+1)
	for _, m := range mins {
		if m >= n {
			buckets[n]++
		} else if m > 0 {
			buckets[m]++
		}
	}
	cum := int64(0)
	for k := n; k >= 1; k-- {
		cum += buckets[k]
		if cum >= k {
			return k
		}
	}
	return 0
}

// PhiUpperBoundMarked returns an upper bound on the bitruss number of
// edge e derived from the current supports: the largest k such that at
// least k butterflies containing e have support >= k on each of their
// three other edges (an h-index over the butterflies' weakest members;
// every butterfly of the φ(e)-bitruss must consist of edges with
// support at least φ(e)). The bound is at most sup[e]; incremental
// maintenance uses it to cap how high an inserted edge can push the
// affected level range. mark is a vertex-mark array of length
// g.NumVertices(), all -1 on entry and restored on return, so one array
// serves a whole insertion batch.
func PhiUpperBoundMarked(g *bigraph.Graph, e int32, sup []int64, mark []int32) int64 {
	ed := g.Edge(e)
	u, v := ed.U, ed.V
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	nbrsU, eidsU := g.Neighbors(u)
	for i, x := range nbrsU {
		if x != v {
			mark[x] = eidsU[i]
		}
	}
	var mins []int64
	nbrsV, eidsV := g.Neighbors(v)
	for j, w := range nbrsV {
		if w == u {
			continue
		}
		ewv := eidsV[j]
		nbrsW, eidsW := g.Neighbors(w)
		for l, x := range nbrsW {
			if x == v {
				continue
			}
			eux := mark[x]
			if eux < 0 {
				continue
			}
			m := sup[eux]
			if sup[ewv] < m {
				m = sup[ewv]
			}
			if ewx := eidsW[l]; sup[ewx] < m {
				m = sup[ewx]
			}
			mins = append(mins, m)
		}
	}
	for _, x := range nbrsU {
		mark[x] = -1
	}
	return hIndexOf(mins)
}
