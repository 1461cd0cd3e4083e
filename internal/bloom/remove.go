package bloom

// UpdateFunc observes one butterfly-support update: edge e now has
// support newSup. The peeling drivers use it to relocate e in the bucket
// queue and to account updates (Figures 7, 10 and 14(b) of the paper).
type UpdateFunc func(e int32, newSup int64)

// unlinkFromEdge removes incidence i from its edge's slot segment.
func (ix *Index) unlinkFromEdge(i int32) {
	e := ix.incEdge[i]
	off := ix.edgeOff[e]
	l := ix.edgeLen[e] - 1
	p := ix.incPosE[i]
	moved := ix.edgeSlots[off+l]
	ix.edgeSlots[off+p] = moved
	ix.incPosE[moved] = p
	ix.edgeLen[e] = l
}

// unlinkFromBloom removes incidence i from its bloom's slot segment.
func (ix *Index) unlinkFromBloom(i int32) {
	b := ix.incBloom[i]
	off := ix.bloomOff[b]
	l := ix.bloomLen[b] - 1
	p := ix.incPosB[i]
	moved := ix.bloomSlots[off+l]
	ix.bloomSlots[off+p] = moved
	ix.bloomEdge[off+p] = ix.bloomEdge[off+l]
	ix.incPosB[moved] = p
	ix.bloomLen[b] = l
}

// decrease lowers the support of edge f by delta, never below clamp
// (the "if ⋈e' > ⋈e" guard of Algorithm 2 line 4 combined with the
// max(MBS, ·) clamp of Algorithm 5), reporting the write through fn.
func (ix *Index) decrease(f int32, delta, clamp int64, fn UpdateFunc) {
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

// RemoveEdge performs the edge removal operation r(e) of Definition 6
// using the index, exactly as Algorithm 2: for every bloom B* linked to
// e, the twin edge loses k-1 butterflies and leaves B*, every other edge
// of B* loses one butterfly, and the bloom number of B* drops by one.
// Support writes are clamped from below at clamp (the support of e at
// removal time) and reported through fn.
//
// The operation costs O(⋈e) time (Lemma 5).
func (ix *Index) RemoveEdge(e int32, clamp int64, fn UpdateFunc) {
	off := ix.edgeOff[e]
	for ix.edgeLen[e] > 0 {
		i := ix.edgeSlots[off] // first live incidence of e
		b := ix.incBloom[i]
		k := ix.bloomK[b]
		j := ix.incTwin[i]
		ix.unlinkFromEdge(i)
		ix.unlinkFromBloom(i)
		if j >= 0 {
			// The twin edge leaves B* and loses all k-1 butterflies it
			// had inside it (Lemma 2).
			ix.unlinkFromEdge(j)
			ix.unlinkFromBloom(j)
			ix.decrease(ix.incEdge[j], int64(k-1), clamp, fn)
		}
		// Every surviving edge of B* shared exactly the one butterfly
		// through e's wedge middle with e, so it loses one.
		lo := ix.bloomOff[b]
		for _, f := range ix.bloomEdge[lo : lo+ix.bloomLen[b]] {
			ix.decrease(f, 1, clamp, fn)
		}
		ix.bloomK[b] = k - 1
	}
	ix.indexed[e] = false
}

// addDelta charges d lost butterflies to the surviving edge f. The
// charge is only written by applyDeltas, so an edge touched many times
// in one batch costs one support write (Lemma 9 cost sharing).
func (ix *Index) addDelta(f int32, d int64) {
	if ix.scratchDelta[f] == 0 {
		ix.scratchTouchedEdges = append(ix.scratchTouchedEdges, f)
	}
	ix.scratchDelta[f] += d
}

// applyDeltas writes every charge accumulated by addDelta as one
// decrease clamped at mbs, reported through fn, and clears the charges.
func (ix *Index) applyDeltas(mbs int64, fn UpdateFunc) {
	delta := ix.scratchDelta
	for _, f := range ix.scratchTouchedEdges {
		ix.decrease(f, delta[f], mbs, fn)
		delta[f] = 0
	}
	ix.scratchTouchedEdges = ix.scratchTouchedEdges[:0]
}

// RemoveBatchEdgeOnly removes the batch S of edges using only the batch
// edge processing optimisation (the BiT-BU+ variant evaluated in Figure
// 13): blooms are walked per removed edge as in Algorithm 2, and the
// support deltas of surviving edges are accumulated and written once
// per touched edge at the end of the batch (Lemma 9). All edges of S
// must currently share the minimum support mbs; writes are clamped at
// mbs.
func (ix *Index) RemoveBatchEdgeOnly(S []int32, mbs int64, fn UpdateFunc) {
	ix.ensureScratch()
	inS := ix.scratchInS
	for _, e := range S {
		inS[e] = true
	}
	for _, e := range S {
		off := ix.edgeOff[e]
		for ix.edgeLen[e] > 0 {
			i := ix.edgeSlots[off]
			b := ix.incBloom[i]
			k := ix.bloomK[b]
			j := ix.incTwin[i]
			ix.unlinkFromEdge(i)
			ix.unlinkFromBloom(i)
			if j >= 0 {
				ix.unlinkFromEdge(j)
				ix.unlinkFromBloom(j)
				if f := ix.incEdge[j]; !inS[f] && k > 1 {
					ix.addDelta(f, int64(k-1))
				}
			}
			lo := ix.bloomOff[b]
			for _, f := range ix.bloomEdge[lo : lo+ix.bloomLen[b]] {
				if !inS[f] {
					ix.addDelta(f, 1)
				}
			}
			ix.bloomK[b] = k - 1
		}
		ix.indexed[e] = false
	}
	ix.applyDeltas(mbs, fn)
	for _, e := range S {
		inS[e] = false
	}
}

// RemoveBatch removes the batch S of edges with both batch-based
// optimisations of Section V-B (Algorithm 5 lines 5-21). Phase 1
// detaches S and the twins of S, counting pair removals per bloom in
// C(B*) and charging each surviving twin the k-1 butterflies of its
// bloom, with k the bloom number at the start of the batch. Phase 2
// traverses every touched bloom once, shrinking its bloom number by
// C(B*) and charging each surviving edge C(B*). The charges of both
// phases are accumulated per edge and written once per touched edge at
// the end of the batch (Lemma 9), so BiT-BU++ makes exactly the support
// writes of BiT-BU+ while walking each touched bloom only once. All
// edges of S must currently share the minimum support mbs; writes are
// clamped at mbs.
func (ix *Index) RemoveBatch(S []int32, mbs int64, fn UpdateFunc) {
	ix.ensureScratch()
	c := ix.scratchC
	touched := ix.scratchTouched[:0]
	inS := ix.scratchInS
	for _, e := range S {
		inS[e] = true
	}
	// Phase 1: detach S and the twins of S, counting pair removals.
	for _, e := range S {
		off := ix.edgeOff[e]
		for ix.edgeLen[e] > 0 {
			i := ix.edgeSlots[off]
			b := ix.incBloom[i]
			if c[b] == 0 {
				touched = append(touched, b)
			}
			c[b]++
			j := ix.incTwin[i]
			ix.unlinkFromEdge(i)
			ix.unlinkFromBloom(i)
			if j >= 0 {
				ix.unlinkFromEdge(j)
				ix.unlinkFromBloom(j)
				// Algorithm 5 line 12: the twin loses all k-1
				// butterflies of B*.
				if f, k := ix.incEdge[j], ix.bloomK[b]; !inS[f] && k > 1 {
					ix.addDelta(f, int64(k-1))
				}
			}
		}
		ix.indexed[e] = false
	}
	// Phase 2: per touched bloom, shrink the bloom number by C(B*) and
	// charge each surviving edge C(B*) lost butterflies (lines 14-18).
	// Every incidence of S left its bloom in phase 1, so each edge seen
	// here survives the batch.
	for _, b := range touched {
		cb := c[b]
		ix.bloomK[b] -= cb
		lo := ix.bloomOff[b]
		for _, f := range ix.bloomEdge[lo : lo+ix.bloomLen[b]] {
			ix.addDelta(f, int64(cb))
		}
		c[b] = 0
	}
	ix.scratchTouched = touched[:0]
	ix.applyDeltas(mbs, fn)
	for _, e := range S {
		inS[e] = false
	}
}

func (ix *Index) ensureScratch() {
	if ix.scratchC == nil {
		ix.scratchC = make([]int32, len(ix.bloomK))
		ix.scratchTouched = make([]int32, 0, 64)
	}
	if ix.scratchInS == nil {
		ix.scratchInS = make([]bool, ix.numEdges)
		ix.scratchDelta = make([]int64, ix.numEdges)
		ix.scratchTouchedEdges = make([]int32, 0, 64)
	}
}
