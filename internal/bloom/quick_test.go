package bloom

import (
	"testing"
	"testing/quick"

	"repro/internal/bigraph"
	"repro/internal/butterfly"
)

func graphFromRaw(raw []uint32) (*bigraph.Graph, bool) {
	var b bigraph.Builder
	for _, r := range raw {
		b.AddEdge(int(r%23), int((r>>8)%27))
	}
	g, err := b.Build()
	return g, err == nil
}

// TestFreshIndexQuick: on arbitrary graphs, a fresh index satisfies the
// structural invariants, Lemma 2 (support = Σ (k-1) over incident
// blooms), and Lemma 1/3 (Σ onB = ⋈G).
func TestFreshIndexQuick(t *testing.T) {
	f := func(raw []uint32) bool {
		g, ok := graphFromRaw(raw)
		if !ok {
			return false
		}
		ix := Build(g)
		if ix.CheckInvariants() != nil || ix.CheckFreshSupports() != nil {
			return false
		}
		var sum int64
		for b := int32(0); b < int32(ix.NumBlooms()); b++ {
			sum += ix.BloomButterflies(b)
		}
		return sum == butterfly.Count(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestCompressedSupportsQuick: with an arbitrary assigned mask, the
// compressed index reports the same supports for unassigned edges as
// the full index, and never indexes assigned edges.
func TestCompressedSupportsQuick(t *testing.T) {
	f := func(raw []uint32, mask uint32) bool {
		g, ok := graphFromRaw(raw)
		if !ok {
			return false
		}
		assigned := make([]bool, g.NumEdges())
		for e := range assigned {
			assigned[e] = (uint32(e)>>(uint(e)%7))&1 == mask&1
		}
		cix := BuildCompressed(g, assigned, 1)
		if cix.CheckInvariants() != nil {
			return false
		}
		full := Build(g)
		for e := int32(0); e < int32(g.NumEdges()); e++ {
			if assigned[e] {
				if cix.Indexed(e) {
					return false
				}
				continue
			}
			if cix.Support(e) != full.Support(e) {
				return false
			}
		}
		return cix.SizeBytes() <= full.SizeBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRemovalOrderQuick: removing all edges in an arbitrary order keeps
// the invariants and empties the index.
func TestRemovalOrderQuick(t *testing.T) {
	f := func(raw []uint32, perm uint64) bool {
		g, ok := graphFromRaw(raw)
		if !ok {
			return false
		}
		ix := Build(g)
		m := int32(g.NumEdges())
		// A cheap deterministic permutation of the edges.
		order := make([]int32, m)
		for i := range order {
			order[i] = int32(i)
		}
		state := perm | 1
		for i := len(order) - 1; i > 0; i-- {
			state = state*6364136223846793005 + 1442695040888963407
			j := int(state % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
		for _, e := range order {
			ix.RemoveEdge(e, 0, nil)
		}
		return ix.CheckInvariants() == nil && ix.NumIncidences() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
