package bloom

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/bigraph"
)

// parallelBuildMinVertices gates BuildParallel: below this size goroutine
// and merge overhead beats the serial build.
const parallelBuildMinVertices = 2048

// BuildParallel constructs the same full BE-Index as Build with the
// start-vertex loop of Algorithm 3 partitioned across workers goroutines
// (workers <= 0 selects GOMAXPROCS). Every maximal priority-obeyed bloom
// {u, w} is discovered from its dominant anchor u only, so contiguous
// chunks of start vertices own disjoint bloom and incidence id ranges;
// chunk-local counts from the sizing pass are prefix-summed into global
// offsets, the fill pass writes into disjoint slots, and butterfly
// supports are recovered afterwards from ⋈e = Σ_{B* ∋ e} (k_B − 1)
// (Lemmas 2 and 3). The resulting index is byte-for-byte identical to
// the serial one.
//
// The build trades memory for parallelism: each chunk keeps a dense
// per-edge incidence-count array (4·workers·|E| transient bytes, reused
// as the fill cursors of pass 2), comparable to the per-worker support
// arrays of the parallel butterfly counter.
func BuildParallel(g *bigraph.Graph, workers int) *Index {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := int32(g.NumVertices())
	m := int32(g.NumEdges())
	if workers == 1 || int(n) < parallelBuildMinVertices {
		return Build(g)
	}
	if workers > int(n) {
		workers = int(n)
	}

	bounds := buildChunkBounds(g, workers)
	nc := len(bounds) - 1
	ix := &Index{numEdges: m}

	// Per-chunk output of the sizing pass.
	type chunkSizing struct {
		bloomK   []int32
		anchorA  []int32
		anchorB  []int32
		edgeInc  []int32 // incidences per edge; later rewritten to the fill cursor
		totalInc int64
	}
	sizes := make([]chunkSizing, nc)

	// Pass 1 (parallel): per chunk, count priority-obeyed wedges per
	// (start, anchor) pair, exactly as the serial sizing pass. In the
	// full index every wedge of a materialised bloom contributes two
	// incidences, so a bloom with number k owns a segment of 2k slots.
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cs := &sizes[c]
			cs.edgeInc = make([]int32, m)
			cnt := make([]int32, n)
			touched := make([]int32, 0, 64)
			for u := bounds[c]; u < bounds[c+1]; u++ {
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
						cs.edgeInc[e1]++
						cs.edgeInc[eidsV[j]]++
						cs.totalInc += 2
					}
				}
				for _, w := range touched {
					if cnt[w] >= 2 {
						cs.bloomK = append(cs.bloomK, cnt[w])
						cs.anchorA = append(cs.anchorA, u)
						cs.anchorB = append(cs.anchorB, w)
					}
					cnt[w] = 0
				}
			}
		}(c)
	}
	wg.Wait()

	// Merge (serial): bloom and incidence ids are assigned by ascending
	// chunk, which is ascending start-vertex order — the same order the
	// serial build uses.
	bloomBase := make([]int32, nc+1)
	incBase := make([]int64, nc+1)
	for c := range sizes {
		bloomBase[c+1] = bloomBase[c] + int32(len(sizes[c].bloomK))
		incBase[c+1] = incBase[c] + sizes[c].totalInc
	}
	nb := bloomBase[nc]
	totalInc := incBase[nc]
	ix.bloomK = make([]int32, 0, nb)
	ix.anchorA = make([]int32, 0, nb)
	ix.anchorB = make([]int32, 0, nb)
	for c := range sizes {
		ix.bloomK = append(ix.bloomK, sizes[c].bloomK...)
		ix.anchorA = append(ix.anchorA, sizes[c].anchorA...)
		ix.anchorB = append(ix.anchorB, sizes[c].anchorB...)
	}
	ix.bloomOff = make([]int32, nb+1)
	for b := int32(0); b < nb; b++ {
		ix.bloomOff[b+1] = ix.bloomOff[b] + 2*ix.bloomK[b]
	}
	ix.bloomLen = make([]int32, nb) // pass-2 fill cursor; blooms are chunk-private

	// Per-edge totals and cursor rewrites are independent across edges:
	// parallelise both over disjoint edge ranges.
	ix.edgeOff = make([]int32, m+1)
	step := (m + int32(workers) - 1) / int32(workers)
	parallelEdgeRanges := func(fn func(lo, hi int32)) {
		for lo := int32(0); lo < m; lo += step {
			hi := lo + step
			if hi > m {
				hi = m
			}
			wg.Add(1)
			go func(lo, hi int32) {
				defer wg.Done()
				fn(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	}
	parallelEdgeRanges(func(lo, hi int32) {
		for c := range sizes {
			inc := sizes[c].edgeInc
			for e := lo; e < hi; e++ {
				ix.edgeOff[e+1] += inc[e]
			}
		}
	})
	for e := int32(0); e < m; e++ {
		ix.edgeOff[e+1] += ix.edgeOff[e]
	}
	// Rewrite each chunk's count array into its absolute slot cursor:
	// chunk c fills edge e's slots starting after all earlier chunks'.
	parallelEdgeRanges(func(lo, hi int32) {
		for e := lo; e < hi; e++ {
			cursor := ix.edgeOff[e]
			for c := range sizes {
				inc := sizes[c].edgeInc
				cnt := inc[e]
				inc[e] = cursor
				cursor += cnt
			}
		}
	})

	ix.sup = make([]int64, m)
	ix.indexed = make([]bool, m)
	for e := range ix.indexed {
		ix.indexed[e] = true
	}
	ix.edgeLen = make([]int32, m)
	for e := int32(0); e < m; e++ {
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

	// Pass 2 (parallel): re-enumerate each chunk and fill incidences at
	// the precomputed positions. Chunks write disjoint incidence id
	// ranges, disjoint bloom segments, and disjoint edge-slot positions,
	// so no synchronisation is needed.
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cursor := sizes[c].edgeInc
			nextBloom := bloomBase[c]
			nextInc := int32(incBase[c])
			cnt := make([]int32, n)
			bloomOf := make([]int32, n)
			touched := make([]int32, 0, 64)
			fill := func(i, e, b int32) {
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
			for u := bounds[c]; u < bounds[c+1]; u++ {
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
				for _, w := range touched {
					if cnt[w] >= 2 {
						bloomOf[w] = nextBloom
						nextBloom++
					} else {
						bloomOf[w] = -1
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
						b := bloomOf[w]
						i1 := nextInc
						i2 := nextInc + 1
						nextInc += 2
						fill(i1, e1, b)
						fill(i2, eidsV[j], b)
						ix.incTwin[i1] = i2
						ix.incTwin[i2] = i1
					}
				}
				for _, w := range touched {
					cnt[w] = 0
				}
			}
			if nextBloom != bloomBase[c+1] || int64(nextInc) != incBase[c+1] {
				panic(fmt.Sprintf("bloom: parallel construction passes disagree in chunk %d (%d/%d blooms, %d/%d incidences)",
					c, nextBloom, bloomBase[c+1], nextInc, incBase[c+1]))
			}
		}(c)
	}
	wg.Wait()

	// Supports (parallel over disjoint edge ranges): ⋈e = Σ (k_B − 1).
	parallelEdgeRanges(func(lo, hi int32) {
		for e := lo; e < hi; e++ {
			var s int64
			for _, i := range ix.edgeSlots[ix.edgeOff[e]:ix.edgeOff[e+1]] {
				s += int64(ix.bloomK[ix.incBloom[i]] - 1)
			}
			ix.sup[e] = s
		}
	})
	return ix
}

// buildChunkBounds partitions the start vertices [0, n) into one
// contiguous chunk per worker, balanced by the estimated wedge-scan work
// Σ_{v ∈ N(u), p(v) < p(u)} d(v) of each start vertex u.
func buildChunkBounds(g *bigraph.Graph, workers int) []int32 {
	n := int32(g.NumVertices())
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
	target := total/int64(workers) + 1
	bounds := make([]int32, 1, workers+1)
	var accum int64
	for u := int32(0); u < n; u++ {
		accum += est[u] + 1
		if accum >= target && len(bounds) < workers {
			bounds = append(bounds, u+1)
			accum = 0
		}
	}
	for len(bounds) < workers+1 {
		bounds = append(bounds, n)
	}
	return bounds
}
