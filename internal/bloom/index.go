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
// Incidences are held in flat parallel arrays. Each edge and each bloom
// owns a fixed segment of slot arrays filled at construction; removals
// swap-delete within the segment, so membership iteration is a dense
// scan and removal is O(1).
package bloom

import (
	"fmt"

	"repro/internal/bigraph"
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

// Build constructs the full BE-Index of g (Algorithm 3). Butterfly
// supports of all edges are computed as a by-product and are available
// through Support.
func Build(g *bigraph.Graph) *Index {
	return BuildCompressed(g, nil)
}

// BuildCompressed constructs the compressed BE-Index of Algorithm 6:
// edges with assigned[e] == true are excluded from the edge layer (they
// will never be updated again), while the blooms they support are
// preserved with their full bloom numbers, so the supports of the
// remaining edges are correct. A nil assigned slice builds the full
// index.
func BuildCompressed(g *bigraph.Graph, assigned []bool) *Index {
	n := int32(g.NumVertices())
	m := int32(g.NumEdges())
	ix := &Index{numEdges: m}

	isAssigned := func(e int32) bool { return assigned != nil && assigned[e] }

	cnt := make([]int32, n)    // wedges per end vertex for the current start
	incCnt := make([]int32, n) // incidences per end vertex for the current start
	touched := make([]int32, 0, 64)

	edgeIncCnt := make([]int32, m)
	var totalInc int64

	// Pass 1: size everything. For each start vertex u, count
	// priority-obeyed wedges per end vertex w; every w with cnt[w] >= 2
	// anchors the maximal priority-obeyed bloom {u, w} (Lemma 7), which
	// is materialised iff at least one of its edges is unassigned.
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
				if cnt[w] < 2 {
					continue
				}
				e2 := eidsV[j]
				if !isAssigned(e1) {
					edgeIncCnt[e1]++
					incCnt[w]++
					totalInc++
				}
				if !isAssigned(e2) {
					edgeIncCnt[e2]++
					incCnt[w]++
					totalInc++
				}
			}
		}
		for _, w := range touched {
			if cnt[w] >= 2 && incCnt[w] > 0 {
				ix.bloomK = append(ix.bloomK, cnt[w])
				ix.anchorA = append(ix.anchorA, u)
				ix.anchorB = append(ix.anchorB, w)
				ix.bloomLen = append(ix.bloomLen, incCnt[w]) // temp: capacity
			}
			cnt[w] = 0
			incCnt[w] = 0
		}
	}

	nb := int32(len(ix.bloomK))
	// Prefix sums -> segment offsets.
	ix.bloomOff = make([]int32, nb+1)
	for b := int32(0); b < nb; b++ {
		ix.bloomOff[b+1] = ix.bloomOff[b] + ix.bloomLen[b]
	}
	ix.edgeOff = make([]int32, m+1)
	for e := int32(0); e < m; e++ {
		ix.edgeOff[e+1] = ix.edgeOff[e] + edgeIncCnt[e]
	}

	ix.sup = make([]int64, m)
	ix.indexed = make([]bool, m)
	for e := int32(0); e < m; e++ {
		ix.indexed[e] = !isAssigned(e)
	}
	ix.edgeLen = make([]int32, m)
	ix.incEdge = make([]int32, totalInc)
	ix.incBloom = make([]int32, totalInc)
	ix.incTwin = make([]int32, totalInc)
	ix.incPosE = make([]int32, totalInc)
	ix.incPosB = make([]int32, totalInc)
	ix.edgeSlots = make([]int32, totalInc)
	ix.bloomSlots = make([]int32, totalInc)
	ix.bloomEdge = make([]int32, totalInc)

	// Reset bloomLen: pass 2 uses it as the fill cursor.
	for b := range ix.bloomLen {
		ix.bloomLen[b] = 0
	}

	// Pass 2: fill incidences. Bloom ids are assigned in the same
	// (start vertex, first-encounter) order as pass 1.
	bloomOf := make([]int32, n)
	nextBloom := int32(0)
	nextInc := int32(0)
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
		// Recompute the creation condition exactly as in pass 1.
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
				if cnt[w] < 2 {
					continue
				}
				if !isAssigned(e1) {
					incCnt[w]++
				}
				if !isAssigned(eidsV[j]) {
					incCnt[w]++
				}
			}
		}
		for _, w := range touched {
			if cnt[w] >= 2 && incCnt[w] > 0 {
				bloomOf[w] = nextBloom
				nextBloom++
			} else {
				bloomOf[w] = -1
			}
		}
		// Fill.
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
				a1, a2 := !isAssigned(e1), !isAssigned(e2)
				if a1 {
					ix.sup[e1] += int64(c - 1)
				}
				if a2 {
					ix.sup[e2] += int64(c - 1)
				}
				if b < 0 {
					continue
				}
				var i1, i2 int32 = -1, -1
				if a1 {
					i1 = nextInc
					nextInc++
					ix.fillIncidence(i1, e1, b)
				}
				if a2 {
					i2 = nextInc
					nextInc++
					ix.fillIncidence(i2, e2, b)
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
			incCnt[w] = 0
		}
	}
	if nextBloom != nb || int64(nextInc) != totalInc {
		panic(fmt.Sprintf("bloom: construction passes disagree (%d/%d blooms, %d/%d incidences)",
			nextBloom, nb, nextInc, totalInc))
	}
	return ix
}

// fillIncidence installs incidence i for edge e inside bloom b at the
// next free slot of each segment.
func (ix *Index) fillIncidence(i, e, b int32) {
	ix.incEdge[i] = e
	ix.incBloom[i] = b
	pe := ix.edgeLen[e]
	ix.edgeSlots[ix.edgeOff[e]+pe] = i
	ix.incPosE[i] = pe
	ix.edgeLen[e] = pe + 1
	pb := ix.bloomLen[b]
	ix.bloomSlots[ix.bloomOff[b]+pb] = i
	ix.bloomEdge[ix.bloomOff[b]+pb] = e
	ix.incPosB[i] = pb
	ix.bloomLen[b] = pb + 1
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
