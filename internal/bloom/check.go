package bloom

import "fmt"

// CheckInvariants validates the structural consistency of the index:
// segment back-pointers, twin symmetry, and agreement between the edge
// view and the bloom view of the live incidences. It is exercised by the
// test suites after every kind of mutation.
func (ix *Index) CheckInvariants() error {
	live := make(map[int32]bool)
	for e := int32(0); e < ix.numEdges; e++ {
		off, l := ix.edgeOff[e], ix.edgeLen[e]
		if l < 0 || off+l > ix.edgeOff[e+1] {
			return fmt.Errorf("edge %d: segment [%d,%d) overflows", e, off, off+l)
		}
		for p := int32(0); p < l; p++ {
			i := ix.edgeSlots[off+p]
			if ix.incEdge[i] != e {
				return fmt.Errorf("edge %d slot %d: incidence %d belongs to edge %d", e, p, i, ix.incEdge[i])
			}
			if ix.incPosE[i] != p {
				return fmt.Errorf("edge %d slot %d: incidence %d has posE %d", e, p, i, ix.incPosE[i])
			}
			if live[i] {
				return fmt.Errorf("incidence %d appears twice in edge segments", i)
			}
			live[i] = true
		}
	}
	nb := int32(len(ix.bloomK))
	bloomSeen := 0
	for b := int32(0); b < nb; b++ {
		off, l := ix.bloomOff[b], ix.bloomLen[b]
		if l < 0 || off+l > ix.bloomOff[b+1] {
			return fmt.Errorf("bloom %d: segment [%d,%d) overflows", b, off, off+l)
		}
		if ix.bloomK[b] < 0 {
			return fmt.Errorf("bloom %d: negative bloom number %d", b, ix.bloomK[b])
		}
		for p := int32(0); p < l; p++ {
			i := ix.bloomSlots[off+p]
			if ix.incBloom[i] != b {
				return fmt.Errorf("bloom %d slot %d: incidence %d belongs to bloom %d", b, p, i, ix.incBloom[i])
			}
			if ix.incPosB[i] != p {
				return fmt.Errorf("bloom %d slot %d: incidence %d has posB %d", b, p, i, ix.incPosB[i])
			}
			if ix.bloomEdge[off+p] != ix.incEdge[i] {
				return fmt.Errorf("bloom %d slot %d: bloomEdge %d but incidence %d belongs to edge %d", b, p, ix.bloomEdge[off+p], i, ix.incEdge[i])
			}
			if !live[i] {
				return fmt.Errorf("incidence %d live in bloom view but not in edge view", i)
			}
			bloomSeen++
		}
	}
	if bloomSeen != len(live) {
		return fmt.Errorf("live incidences disagree: %d in blooms, %d in edges", bloomSeen, len(live))
	}
	// Twin symmetry among live incidences.
	for i := range live {
		j := ix.incTwin[i]
		if j < 0 {
			continue
		}
		if !live[j] {
			return fmt.Errorf("incidence %d has dead twin %d", i, j)
		}
		if ix.incTwin[j] != i {
			return fmt.Errorf("twin of %d is %d but twin of %d is %d", i, j, j, ix.incTwin[j])
		}
		if ix.incBloom[i] != ix.incBloom[j] {
			return fmt.Errorf("twins %d,%d in different blooms", i, j)
		}
		if ix.incEdge[i] == ix.incEdge[j] {
			return fmt.Errorf("twins %d,%d on the same edge", i, j)
		}
	}
	// Indexed edges must not have dangling segments and vice versa.
	for e := int32(0); e < ix.numEdges; e++ {
		if !ix.indexed[e] && ix.edgeLen[e] > 0 {
			return fmt.Errorf("edge %d removed from L(I) but still has %d incidences", e, ix.edgeLen[e])
		}
	}
	return nil
}

// CheckFreshSupports validates that, on a freshly built index, the
// support of every indexed edge equals Σ_{B* ∋ e} (k_B − 1), the
// consequence of Lemmas 2 and 3. Only valid before any removal.
func (ix *Index) CheckFreshSupports() error {
	for e := int32(0); e < ix.numEdges; e++ {
		if !ix.indexed[e] {
			continue
		}
		var want int64
		off, l := ix.edgeOff[e], ix.edgeLen[e]
		for p := int32(0); p < l; p++ {
			i := ix.edgeSlots[off+p]
			want += int64(ix.bloomK[ix.incBloom[i]] - 1)
		}
		if ix.sup[e] != want {
			return fmt.Errorf("edge %d: support %d but Σ(k-1) over blooms = %d", e, ix.sup[e], want)
		}
	}
	return nil
}
