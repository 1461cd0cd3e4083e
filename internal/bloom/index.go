// Package bloom implements the BE-Index (Bloom-Edge-Index) of Section IV
// of the paper: a bipartite index linking every maximal priority-obeyed
// bloom (Definition 8) with the edges it contains, annotated with twin
// edges (Definition 9).
//
// Every priority-obeyed wedge (u, v, w) — p(u) > p(v), p(u) > p(w) —
// belongs to exactly one maximal priority-obeyed bloom, the one anchored
// by the pair {u, w}; the wedge contributes the two incidences
// (B, (u,v)) and (B, (w,v)), which are mutual twins. The index therefore
// stores O(Σ_{(u,v)∈E} min{d(u), d(v)}) incidences (Lemma 6) and supports
// the edge removal operation of Algorithm 2 in O(⋈e) time (Lemma 5).
//
// One routine, BuildCompressed, constructs both the full index
// (Algorithm 3) and the compressed one (Algorithm 6). It runs the
// priority-obeyed wedge scan of the butterfly counter
// (butterfly.WedgeCounts) twice, once to size and once to fill, over
// contiguous chunks of start vertices; the chunk count only changes how
// many goroutines share the work, never the index.
//
// Incidences are held in flat parallel arrays. Each edge and each bloom
// owns a fixed segment of slot arrays filled at construction; removals
// swap-delete within the segment, so membership iteration is a dense
// scan and removal is O(1).
package bloom

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/bigraph"
	"repro/internal/butterfly"
)

// Index is the BE-Index over one bipartite graph. Build or
// BuildCompressed constructs it; the peeling algorithms then mutate it
// via RemoveEdge and RemoveBatch.
type Index struct {
	numEdges int32

	// Per bloom (U(I) of the paper).
	bloomK   []int32 // current bloom number k (onB = k(k-1)/2)
	anchorA  []int32 // dominant-layer anchor with the larger priority
	anchorB  []int32 // the other anchor
	bloomOff []int32 // start of the bloom's slot segment
	bloomLen []int32 // live slots in the segment

	// Per edge (L(I) of the paper).
	sup     []int64 // current butterfly support ⋈e (only for indexed edges)
	indexed []bool  // whether the edge is present in L(I)
	edgeOff []int32
	edgeLen []int32

	// Per incidence (E(I) of the paper). Two incidences per fully
	// unassigned wedge, one where the twin edge is assigned.
	incEdge  []int32
	incBloom []int32
	incTwin  []int32 // twin incidence id, or -1 when the twin edge is not indexed
	incPosE  []int32 // offset of this incidence inside its edge segment
	incPosB  []int32 // offset inside its bloom segment

	edgeSlots  []int32 // incidence ids, segmented per edge
	bloomSlots []int32 // incidence ids, segmented per bloom
	bloomEdge  []int32 // bloomEdge[s] = incEdge[bloomSlots[s]], for contiguous bloom walks

	// Scratch reused by the batch removal operations.
	scratchC            []int32 // pair-removal counter per bloom (C(B*))
	scratchTouched      []int32 // blooms with C(B*) > 0
	scratchInS          []bool  // membership bitmap for the current batch
	scratchDelta        []int64 // accumulated support deltas per edge
	scratchTouchedEdges []int32 // edges with a pending delta
}

// Build constructs the full BE-Index of g (Algorithm 3) on one
// goroutine. Butterfly supports of all edges are computed as a
// by-product and are available through Support.
func Build(g *bigraph.Graph) *Index {
	return BuildCompressed(g, nil, 1)
}

// BuildCompressed constructs the BE-Index of g. With a nil assigned
// slice it is the full index of Algorithm 3; otherwise it is the
// compressed index of Algorithm 6: edges with assigned[e] == true are
// excluded from the edge layer (they will never be updated again), while
// the blooms they support are preserved with their full bloom numbers,
// so the supports of the remaining edges are correct.
//
// The start vertices run in contiguous chunks, one goroutine each; the
// chunk count is the smallest of workers, GOMAXPROCS and |V|, and at
// least 1. Every maximal priority-obeyed bloom {u, w} is discovered from
// its dominant anchor u only (Lemma 7), so chunks own disjoint bloom and
// incidence id ranges:
//   - pass 1 sizes each chunk's blooms and per-edge incidences;
//   - the merge prefix-sums them in ascending start-vertex order;
//   - pass 2 re-scans each chunk and fills disjoint slots;
//   - supports are recovered as ⋈e = Σ_{B* ∋ e} (k_B − 1) (Lemmas 2
//     and 3).
//
// The index is identical, field for field, for every chunk count. Each
// chunk holds a per-edge incidence count (4·|E| transient bytes, reused
// as its pass-2 fill cursor), which the GOMAXPROCS cap bounds.
func BuildCompressed(g *bigraph.Graph, assigned []bool, workers int) *Index {
	n := int32(g.NumVertices())
	m := int32(g.NumEdges())
	nc := max(1, min(workers, runtime.GOMAXPROCS(0), int(n)))
	bounds := buildChunkBounds(g, nc)
	chunks := make([]buildChunk, nc)
	for c := range chunks {
		chunks[c] = buildChunk{lo: bounds[c], hi: bounds[c+1]}
	}

	// Pass 1: for each start vertex u, count priority-obeyed wedges per
	// end vertex w; every w with cnt[w] >= 2 anchors the bloom {u, w},
	// which is materialised iff at least one of its edges is unassigned.
	inParallel(nc, func(c int) { chunks[c].size(g, assigned) })

	// Merge: bloom and incidence ids are assigned by ascending chunk,
	// which is ascending start-vertex order.
	ix := &Index{numEdges: m, bloomOff: []int32{0}}
	var totalInc int64
	for c := range chunks {
		ch := &chunks[c]
		ch.bloomBase, ch.incBase = int32(len(ix.bloomK)), int32(totalInc)
		totalInc += ch.numInc
		ix.bloomK = append(ix.bloomK, ch.bloomK...)
		ix.anchorA = append(ix.anchorA, ch.anchorA...)
		ix.anchorB = append(ix.anchorB, ch.anchorB...)
		for _, k := range ch.bloomCap {
			ix.bloomOff = append(ix.bloomOff, ix.bloomOff[len(ix.bloomOff)-1]+k)
		}
	}
	ix.bloomLen = make([]int32, len(ix.bloomK)) // pass-2 fill cursor; blooms are chunk-private
	// Rewrite each chunk's count array into its absolute slot cursor:
	// chunk c fills edge e's slots after all earlier chunks'.
	ix.edgeOff = make([]int32, m+1)
	for e := int32(0); e < m; e++ {
		pos := ix.edgeOff[e]
		for c := range chunks {
			inc := chunks[c].edgeInc
			k := inc[e]
			inc[e] = pos
			pos += k
		}
		ix.edgeOff[e+1] = pos
	}
	ix.sup = make([]int64, m)
	ix.indexed = make([]bool, m)
	ix.edgeLen = make([]int32, m)
	for e := int32(0); e < m; e++ {
		ix.indexed[e] = live(assigned, e)
		ix.edgeLen[e] = ix.edgeOff[e+1] - ix.edgeOff[e]
	}
	ix.incEdge = make([]int32, totalInc)
	ix.incBloom = make([]int32, totalInc)
	ix.incTwin = make([]int32, totalInc)
	ix.incPosE = make([]int32, totalInc)
	ix.incPosB = make([]int32, totalInc)
	ix.edgeSlots = make([]int32, totalInc)
	ix.bloomSlots = make([]int32, totalInc)
	ix.bloomEdge = make([]int32, totalInc)

	// Pass 2: re-scan each chunk and fill incidences at the precomputed
	// positions. Chunks write disjoint incidence ids, bloom segments and
	// edge slots, so no synchronisation is needed.
	inParallel(nc, func(c int) { chunks[c].fill(g, ix, assigned) })

	// Supports, over disjoint edge ranges: ⋈e = Σ (k_B − 1).
	inParallel(nc, func(c int) {
		lo, hi := int64(m)*int64(c)/int64(nc), int64(m)*int64(c+1)/int64(nc)
		for e := int32(lo); e < int32(hi); e++ {
			var s int64
			for _, i := range ix.edgeSlots[ix.edgeOff[e]:ix.edgeOff[e+1]] {
				s += int64(ix.bloomK[ix.incBloom[i]] - 1)
			}
			ix.sup[e] = s
		}
	})
	return ix
}

// live reports whether edge e belongs to the edge layer.
func live(assigned []bool, e int32) bool { return assigned == nil || !assigned[e] }

// buildChunk is one contiguous range of start vertices of BuildCompressed.
type buildChunk struct {
	lo, hi int32

	// Pass 1 output: the chunk's blooms in discovery order.
	bloomK, anchorA, anchorB []int32
	bloomCap                 []int32 // incidences (slots) per bloom
	edgeInc                  []int32 // incidences per edge; the merge turns it into the fill cursor
	numInc                   int64

	bloomBase, incBase int32 // first global bloom and incidence id

	cnt, scratch []int32 // per-vertex wedge counts and incidence counts / bloom ids
}

// size is pass 1 over the chunk.
func (ch *buildChunk) size(g *bigraph.Graph, assigned []bool) {
	n := g.NumVertices()
	ch.edgeInc = make([]int32, g.NumEdges())
	ch.cnt = make([]int32, n)
	ch.scratch = make([]int32, n)
	cnt, incCnt := ch.cnt, ch.scratch
	touched := make([]int32, 0, 64)
	for u := ch.lo; u < ch.hi; u++ {
		touched = butterfly.WedgeCounts(g, u, cnt, touched[:0])
		ru := g.Rank(u)
		nbrsU, eidsU := g.Neighbors(u)
		for i, v := range nbrsU {
			if g.Rank(v) >= ru {
				break
			}
			e1 := eidsU[i]
			live1 := live(assigned, e1)
			nbrsV, eidsV := g.Neighbors(v)
			for j, w := range nbrsV {
				if g.Rank(w) >= ru {
					break
				}
				if cnt[w] < 2 {
					continue
				}
				if live1 {
					ch.edgeInc[e1]++
					incCnt[w]++
				}
				if e2 := eidsV[j]; live(assigned, e2) {
					ch.edgeInc[e2]++
					incCnt[w]++
				}
			}
		}
		for _, w := range touched {
			if k := incCnt[w]; k > 0 {
				ch.bloomK = append(ch.bloomK, cnt[w])
				ch.anchorA = append(ch.anchorA, u)
				ch.anchorB = append(ch.anchorB, w)
				ch.bloomCap = append(ch.bloomCap, k)
				ch.numInc += int64(k)
			}
			cnt[w] = 0
			incCnt[w] = 0
		}
	}
}

// fill is pass 2 over the chunk. The blooms pass 1 kept for start u are
// the next entries of the chunk's list anchored at u, so their ids are
// read back rather than recomputed; a wedge with a live edge always
// lies in one of them.
func (ch *buildChunk) fill(g *bigraph.Graph, ix *Index, assigned []bool) {
	cursor := ch.edgeInc
	cnt, bloomOf := ch.cnt, ch.scratch
	nextBloom, endBloom := ch.bloomBase, ch.bloomBase+int32(len(ch.bloomK))
	nextInc := ch.incBase
	touched := make([]int32, 0, 64)
	for u := ch.lo; u < ch.hi; u++ {
		touched = butterfly.WedgeCounts(g, u, cnt, touched[:0])
		for ; nextBloom < endBloom && ix.anchorA[nextBloom] == u; nextBloom++ {
			bloomOf[ix.anchorB[nextBloom]] = nextBloom
		}
		ru := g.Rank(u)
		nbrsU, eidsU := g.Neighbors(u)
		for i, v := range nbrsU {
			if g.Rank(v) >= ru {
				break
			}
			e1 := eidsU[i]
			live1 := live(assigned, e1)
			nbrsV, eidsV := g.Neighbors(v)
			for j, w := range nbrsV {
				if g.Rank(w) >= ru {
					break
				}
				if cnt[w] < 2 {
					continue
				}
				b, e2 := bloomOf[w], eidsV[j]
				var i1, i2 int32 = -1, -1
				if live1 {
					i1 = nextInc
					nextInc++
					ix.fillIncidence(i1, e1, b, cursor)
				}
				if live(assigned, e2) {
					i2 = nextInc
					nextInc++
					ix.fillIncidence(i2, e2, b, cursor)
				}
				if i1 >= 0 {
					ix.incTwin[i1] = i2
				}
				if i2 >= 0 {
					ix.incTwin[i2] = i1
				}
			}
		}
		for _, w := range touched {
			cnt[w] = 0
		}
	}
	if nextBloom != endBloom || int64(nextInc-ch.incBase) != ch.numInc {
		panic(fmt.Sprintf("bloom: construction passes disagree (%d/%d blooms, %d/%d incidences)",
			nextBloom-ch.bloomBase, len(ch.bloomK), nextInc-ch.incBase, ch.numInc))
	}
}

// fillIncidence installs incidence i for edge e inside bloom b at the
// next free slot of each segment; cursor[e] is the next free slot of e.
func (ix *Index) fillIncidence(i, e, b int32, cursor []int32) {
	ix.incEdge[i] = e
	ix.incBloom[i] = b
	pos := cursor[e]
	cursor[e] = pos + 1
	ix.edgeSlots[pos] = i
	ix.incPosE[i] = pos - ix.edgeOff[e]
	pb := ix.bloomLen[b]
	ix.bloomLen[b] = pb + 1
	ix.bloomSlots[ix.bloomOff[b]+pb] = i
	ix.bloomEdge[ix.bloomOff[b]+pb] = e
	ix.incPosB[i] = pb
}

// buildChunkBounds partitions the start vertices [0, n) into chunks
// contiguous ranges, balanced by the estimated wedge-scan work
// Σ_{v ∈ N(u), p(v) < p(u)} d(v) of each start vertex u.
func buildChunkBounds(g *bigraph.Graph, chunks int) []int32 {
	n := int32(g.NumVertices())
	if chunks == 1 {
		return []int32{0, n}
	}
	est := make([]int64, n)
	var total int64
	for u := int32(0); u < n; u++ {
		ru := g.Rank(u)
		nbrs, _ := g.Neighbors(u)
		for _, v := range nbrs {
			if g.Rank(v) >= ru {
				break
			}
			est[u] += int64(g.Degree(v))
		}
		total += est[u] + 1
	}
	target := total/int64(chunks) + 1
	bounds := make([]int32, 1, chunks+1)
	var accum int64
	for u := int32(0); u < n; u++ {
		accum += est[u] + 1
		if accum >= target && len(bounds) < chunks {
			bounds = append(bounds, u+1)
			accum = 0
		}
	}
	for len(bounds) < chunks+1 {
		bounds = append(bounds, n)
	}
	return bounds
}

// inParallel runs fn(0), ..., fn(k-1) concurrently, fn(0) on the calling
// goroutine.
func inParallel(k int, fn func(int)) {
	var wg sync.WaitGroup
	for c := 1; c < k; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	fn(0)
	wg.Wait()
}

// NumBlooms returns |U(I)|, the number of maximal priority-obeyed blooms
// materialised in the index.
func (ix *Index) NumBlooms() int { return len(ix.bloomK) }

// NumIncidences returns |E(I)|, the number of live (bloom, edge) links.
func (ix *Index) NumIncidences() int {
	total := 0
	for _, l := range ix.edgeLen {
		total += int(l)
	}
	return total
}

// Support returns the current butterfly support of edge e. It is only
// meaningful while e is indexed (or immediately after construction).
func (ix *Index) Support(e int32) int64 { return ix.sup[e] }

// Supports exposes the support slice; the peeling drivers read initial
// values from it. Callers must not modify it.
func (ix *Index) Supports() []int64 { return ix.sup }

// Indexed reports whether edge e is present in the edge layer L(I).
func (ix *Index) Indexed(e int32) bool { return ix.indexed[e] }

// BloomNumber returns the current bloom number k of bloom b.
func (ix *Index) BloomNumber(b int32) int32 { return ix.bloomK[b] }

// BloomButterflies returns onB = k(k-1)/2 for bloom b (Lemma 1).
func (ix *Index) BloomButterflies(b int32) int64 {
	k := int64(ix.bloomK[b])
	return k * (k - 1) / 2
}

// Anchors returns the two dominant-layer vertices of bloom b; the first
// one has the highest priority in the bloom.
func (ix *Index) Anchors(b int32) (int32, int32) { return ix.anchorA[b], ix.anchorB[b] }

// EdgesOfBloom appends the edges currently linked to bloom b (N_I(B*))
// to buf and returns it.
func (ix *Index) EdgesOfBloom(b int32, buf []int32) []int32 {
	lo := ix.bloomOff[b]
	return append(buf, ix.bloomEdge[lo:lo+ix.bloomLen[b]]...)
}

// BloomsOfEdge appends the blooms currently linked to edge e (N_I(e)) to
// buf and returns it.
func (ix *Index) BloomsOfEdge(e int32, buf []int32) []int32 {
	lo := ix.edgeOff[e]
	for s := lo; s < lo+ix.edgeLen[e]; s++ {
		buf = append(buf, ix.incBloom[ix.edgeSlots[s]])
	}
	return buf
}

// TwinOf returns the twin edge of e in bloom b (Definition 9) and true,
// or -1 and false when e is not linked to b or its twin is not indexed.
func (ix *Index) TwinOf(b, e int32) (int32, bool) {
	lo := ix.edgeOff[e]
	for s := lo; s < lo+ix.edgeLen[e]; s++ {
		i := ix.edgeSlots[s]
		if ix.incBloom[i] == b {
			if j := ix.incTwin[i]; j >= 0 {
				return ix.incEdge[j], true
			}
			return -1, false
		}
	}
	return -1, false
}

// SizeBytes returns the resident size of the index arrays, the quantity
// reported in Figure 11 of the paper.
func (ix *Index) SizeBytes() int64 {
	var b int64
	b += int64(len(ix.bloomK)) * 4
	b += int64(len(ix.anchorA)) * 4
	b += int64(len(ix.anchorB)) * 4
	b += int64(len(ix.bloomOff)) * 4
	b += int64(len(ix.bloomLen)) * 4
	b += int64(len(ix.sup)) * 8
	b += int64(len(ix.indexed)) * 1
	b += int64(len(ix.edgeOff)) * 4
	b += int64(len(ix.edgeLen)) * 4
	b += int64(len(ix.incEdge)) * 4 * 5 // incEdge, incBloom, incTwin, incPosE, incPosB
	b += int64(len(ix.edgeSlots)) * 4
	b += int64(len(ix.bloomSlots)) * 4
	b += int64(len(ix.bloomEdge)) * 4
	return b
}

func (ix *Index) String() string {
	return fmt.Sprintf("BE-Index{blooms=%d incidences=%d bytes=%d}",
		ix.NumBlooms(), ix.NumIncidences(), ix.SizeBytes())
}
