package bloom

import (
	"math/rand"
	"testing"

	"repro/internal/bigraph"
	"repro/internal/butterfly"
	"repro/internal/testgraphs"
)

func randomGraph(nu, nl, m int, seed int64) *bigraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var b bigraph.Builder
	b.SetLayerSizes(nu, nl)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(nu), rng.Intn(nl))
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func mustInvariants(t *testing.T, ix *Index) {
	t.Helper()
	if err := ix.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestBuildFigure1(t *testing.T) {
	g := testgraphs.Figure1()
	ix := Build(g)
	mustInvariants(t, ix)
	if err := ix.CheckFreshSupports(); err != nil {
		t.Fatalf("fresh supports: %v", err)
	}
	// With the tie-breaking of Definition 7 (u.id > v.id), u2 has the
	// highest priority of the Figure 4(a) graph and the butterflies
	// split into four 2-blooms rather than the two blooms drawn in
	// Figure 6 (which uses a different tie order). Lemma 3 still holds:
	// Σ onB = ⋈G = 4.
	var sum int64
	for b := int32(0); b < int32(ix.NumBlooms()); b++ {
		sum += ix.BloomButterflies(b)
	}
	if sum != 4 {
		t.Errorf("Σ onB = %d, want ⋈G = 4", sum)
	}
	for pair, want := range testgraphs.Figure1Supports() {
		e := g.EdgeID(int32(g.NumLower()+pair[0]), int32(pair[1]))
		if got := ix.Support(e); got != want {
			t.Errorf("support(u%d,v%d) = %d, want %d", pair[0], pair[1], got, want)
		}
	}
}

func TestBuildSingleBloom(t *testing.T) {
	const k = 101
	g := testgraphs.Bloom(k)
	ix := Build(g)
	mustInvariants(t, ix)
	if ix.NumBlooms() != 1 {
		t.Fatalf("NumBlooms = %d, want 1", ix.NumBlooms())
	}
	if got := ix.BloomNumber(0); got != k {
		t.Errorf("bloom number = %d, want %d", got, k)
	}
	if got, want := ix.BloomButterflies(0), int64(k)*int64(k-1)/2; got != want {
		t.Errorf("onB = %d, want %d (Lemma 1)", got, want)
	}
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		if got := ix.Support(e); got != k-1 {
			t.Errorf("support(e%d) = %d, want %d (Lemma 2)", e, got, k-1)
		}
	}
	if got := ix.NumIncidences(); got != 2*k {
		t.Errorf("incidences = %d, want %d", got, 2*k)
	}
	// The anchors must be the two degree-k upper vertices.
	a1, a2 := ix.Anchors(0)
	if g.Degree(a1) != k || g.Degree(a2) != k {
		t.Errorf("anchors (%d,%d) are not the two hub vertices", a1, a2)
	}
}

func TestSupportsMatchCountingRandom(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(25, 30, 250, seed)
		ix := Build(g)
		mustInvariants(t, ix)
		if err := ix.CheckFreshSupports(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_, want := butterfly.CountAndSupports(g)
		for e := range want {
			if ix.Support(int32(e)) != want[e] {
				t.Errorf("seed %d: support(e%d) = %d, want %d", seed, e, ix.Support(int32(e)), want[e])
			}
		}
	}
}

// TestBloomPartition verifies Lemma 3: every butterfly belongs to exactly
// one maximal priority-obeyed bloom, identified by the dominant-layer
// pair containing the butterfly's top-priority vertex.
func TestBloomPartition(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(15, 18, 150, seed)
		ix := Build(g)
		type anchor struct{ a, b int32 }
		bloomOf := make(map[anchor]int32)
		for b := int32(0); b < int32(ix.NumBlooms()); b++ {
			a1, a2 := ix.Anchors(b)
			if a1 < a2 {
				a1, a2 = a2, a1
			}
			if _, dup := bloomOf[anchor{a1, a2}]; dup {
				t.Fatalf("seed %d: duplicate bloom anchored (%d,%d)", seed, a1, a2)
			}
			bloomOf[anchor{a1, a2}] = b
		}
		perBloom := make(map[int32]int64)
		total := int64(0)
		butterfly.Enumerate(g, func(bf butterfly.Butterfly) {
			total++
			// Dominant layer is the one holding the top-priority vertex.
			top := bf.U1
			for _, v := range []int32{bf.U2, bf.V1, bf.V2} {
				if g.Rank(v) > g.Rank(top) {
					top = v
				}
			}
			var a1, a2 int32
			if g.IsUpper(top) {
				a1, a2 = bf.U1, bf.U2
			} else {
				a1, a2 = bf.V1, bf.V2
			}
			if a1 < a2 {
				a1, a2 = a2, a1
			}
			b, ok := bloomOf[anchor{a1, a2}]
			if !ok {
				t.Fatalf("seed %d: butterfly %+v maps to missing bloom (%d,%d)", seed, bf, a1, a2)
			}
			perBloom[b]++
		})
		var sum int64
		for b := int32(0); b < int32(ix.NumBlooms()); b++ {
			if got, want := perBloom[b], ix.BloomButterflies(b); got != want {
				t.Errorf("seed %d: bloom %d holds %d butterflies, index says %d", seed, b, got, want)
			}
			sum += ix.BloomButterflies(b)
		}
		if sum != total {
			t.Errorf("seed %d: Σ onB = %d, want ⋈G = %d", seed, sum, total)
		}
	}
}

// TestSpaceBound verifies the Lemma 6 bound: the number of incidences is
// at most twice the number of priority-obeyed wedges, which is bounded by
// Σ_(u,v) min{d(u), d(v)}.
func TestSpaceBound(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(40, 50, 600, seed)
		ix := Build(g)
		bound := 2 * bigraph.ComputeStats(g).WedgeBound
		if got := int64(ix.NumIncidences()); got > bound {
			t.Errorf("seed %d: %d incidences exceed Lemma 6 bound %d", seed, got, bound)
		}
	}
}

// TestRemoveEdgeExample2 replays Example 2 of the paper on the Figure
// 4(a) graph: removing (u2, v2) must lower the support of (u2, v1) from
// 3 to 2 and leave the support-1 edges untouched.
func TestRemoveEdgeExample2(t *testing.T) {
	g := testgraphs.Figure1()
	ix := Build(g)
	nl := int32(g.NumLower())
	e6 := g.EdgeID(nl+2, 2) // (u2, v2)
	e5 := g.EdgeID(nl+2, 1) // (u2, v1)
	e7 := g.EdgeID(nl+3, 1) // (u3, v1)
	e8 := g.EdgeID(nl+3, 2) // (u3, v2)

	var updates []int32
	ix.RemoveEdge(e6, ix.Support(e6), func(e int32, s int64) { updates = append(updates, e) })
	mustInvariants(t, ix)

	if got := ix.Support(e5); got != 2 {
		t.Errorf("support(u2,v1) = %d, want 2", got)
	}
	if got := ix.Support(e7); got != 1 {
		t.Errorf("support(u3,v1) = %d, want 1 (guarded, no update)", got)
	}
	if got := ix.Support(e8); got != 1 {
		t.Errorf("support(u3,v2) = %d, want 1 (twin at clamp, no update)", got)
	}
	if len(updates) != 1 || updates[0] != e5 {
		t.Errorf("updates = %v, want exactly [e(u2,v1)]", updates)
	}
	if ix.Indexed(e6) {
		t.Errorf("removed edge still indexed")
	}
	if got := ix.BloomsOfEdge(e8, nil); len(got) != 0 {
		t.Errorf("twin edge still linked to blooms: %v", got)
	}
}

func TestRemoveAllEdgesLeavesEmptyIndex(t *testing.T) {
	g := randomGraph(20, 25, 200, 3)
	ix := Build(g)
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		ix.RemoveEdge(e, 0, nil)
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("after removing edge %d: %v", e, err)
		}
	}
	if ix.NumIncidences() != 0 {
		t.Errorf("%d incidences survive full removal", ix.NumIncidences())
	}
	for b := int32(0); b < int32(ix.NumBlooms()); b++ {
		if k := ix.BloomNumber(b); k > 1 {
			t.Errorf("bloom %d still has bloom number %d", b, k)
		}
	}
}

// snapshot captures the externally observable state of an index.
type snapshot struct {
	sup     []int64
	edgeLen []int32
	bloomK  []int32
}

func capture(ix *Index) snapshot {
	return snapshot{
		sup:     append([]int64(nil), ix.sup...),
		edgeLen: append([]int32(nil), ix.edgeLen...),
		bloomK:  append([]int32(nil), ix.bloomK...),
	}
}

func equalSnapshots(a, b snapshot) bool {
	for i := range a.sup {
		if a.sup[i] != b.sup[i] {
			return false
		}
	}
	for i := range a.edgeLen {
		if a.edgeLen[i] != b.edgeLen[i] {
			return false
		}
	}
	for i := range a.bloomK {
		if a.bloomK[i] != b.bloomK[i] {
			return false
		}
	}
	return true
}

// TestBatchRemovalEquivalence checks that removing a minimum-support
// batch via repeated RemoveEdge, via RemoveBatchEdgeOnly, and via
// RemoveBatch yields identical supports, bloom numbers and incidence
// structure (the batch optimisations are pure cost sharing, Lemma 9).
func TestBatchRemovalEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomGraph(20, 25, 220, seed)

		build := func() *Index { return Build(g) }
		base := build()
		// Batch = all edges with the minimum positive support (plus the
		// zero-support ones exercise the empty path).
		min := int64(1 << 62)
		for e := int32(0); e < int32(g.NumEdges()); e++ {
			if s := base.Support(e); s < min {
				min = s
			}
		}
		var S []int32
		for e := int32(0); e < int32(g.NumEdges()); e++ {
			if base.Support(e) == min {
				S = append(S, e)
			}
		}

		ix1 := build()
		for _, e := range S {
			ix1.RemoveEdge(e, min, nil)
		}
		ix2 := build()
		ix2.RemoveBatchEdgeOnly(S, min, nil)
		ix3 := build()
		ix3.RemoveBatch(S, min, nil)

		for _, ix := range []*Index{ix1, ix2, ix3} {
			mustInvariants(t, ix)
		}
		s1, s2, s3 := capture(ix1), capture(ix2), capture(ix3)
		// Supports of the removed batch itself may differ (sequential
		// removal clamps them; batch variants skip them), so compare
		// only surviving edges.
		for _, e := range S {
			s1.sup[e], s2.sup[e], s3.sup[e] = 0, 0, 0
		}
		if !equalSnapshots(s1, s2) {
			t.Errorf("seed %d: edge-only batch diverges from sequential removal", seed)
		}
		if !equalSnapshots(s1, s3) {
			t.Errorf("seed %d: full batch diverges from sequential removal", seed)
		}
	}
}

// TestBatchPeelsWriteAlike replays a whole bottom-up peel, batch by
// minimum-support batch, through RemoveBatch and RemoveBatchEdgeOnly
// side by side, on full and compressed indexes. After every batch both
// indexes must hold identical supports, bloom numbers and incidence
// structure, and both must have reported the same support writes: one
// per touched surviving edge, carrying its final value (Lemma 9).
func TestBatchPeelsWriteAlike(t *testing.T) {
	graphs := []*bigraph.Graph{testgraphs.Figure1(), testgraphs.Bloom(9), testgraphs.Figure2a(8)}
	for seed := int64(0); seed < 6; seed++ {
		graphs = append(graphs, randomGraph(25, 30, 320, seed))
	}
	for gi, g := range graphs {
		m := g.NumEdges()
		// Every third edge by id is assigned in the compressed variant,
		// so twins outside the edge layer (incTwin -1) are exercised.
		assigned := make([]bool, m)
		for e := range assigned {
			assigned[e] = e%3 == 0
		}
		for _, asg := range [][]bool{nil, assigned} {
			both := BuildCompressed(g, asg, 1)
			edgeOnly := BuildCompressed(g, asg, 1)
			for batch := 0; ; batch++ {
				mbs := int64(-1)
				for e := int32(0); e < int32(m); e++ {
					if both.Indexed(e) && (mbs < 0 || both.Support(e) < mbs) {
						mbs = both.Support(e)
					}
				}
				if mbs < 0 {
					break
				}
				var S []int32
				for e := int32(0); e < int32(m); e++ {
					if both.Indexed(e) && both.Support(e) == mbs {
						S = append(S, e)
					}
				}
				wBoth, wEdgeOnly := map[int32]int64{}, map[int32]int64{}
				nBoth, nEdgeOnly := 0, 0
				both.RemoveBatch(S, mbs, func(f int32, s int64) { wBoth[f] = s; nBoth++ })
				edgeOnly.RemoveBatchEdgeOnly(S, mbs, func(f int32, s int64) { wEdgeOnly[f] = s; nEdgeOnly++ })
				mustInvariants(t, both)
				mustInvariants(t, edgeOnly)
				if !equalSnapshots(capture(both), capture(edgeOnly)) {
					t.Fatalf("graph %d compressed=%v batch %d: RemoveBatch and RemoveBatchEdgeOnly diverge", gi, asg != nil, batch)
				}
				if nBoth != len(wBoth) || nEdgeOnly != len(wEdgeOnly) {
					t.Fatalf("graph %d compressed=%v batch %d: %d and %d writes for %d and %d edges, want one write per edge",
						gi, asg != nil, batch, nBoth, nEdgeOnly, len(wBoth), len(wEdgeOnly))
				}
				if len(wBoth) != len(wEdgeOnly) {
					t.Fatalf("graph %d compressed=%v batch %d: %d edges written, edge-only wrote %d", gi, asg != nil, batch, len(wBoth), len(wEdgeOnly))
				}
				for f, s := range wBoth {
					if got, ok := wEdgeOnly[f]; !ok || got != s || s != both.Support(f) {
						t.Fatalf("graph %d compressed=%v batch %d: edge %d written %d, edge-only %d (%v), support %d",
							gi, asg != nil, batch, f, s, got, ok, both.Support(f))
					}
				}
			}
		}
	}
}

// TestCompressedIndex verifies Algorithm 6: assigned edges disappear from
// L(I) while the blooms they support remain, so unassigned supports are
// unchanged, and removals never touch assigned edges.
func TestCompressedIndex(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(20, 25, 220, seed)
		_, sup := butterfly.CountAndSupports(g)

		// Mark the top third of edges (by support) as assigned.
		assigned := make([]bool, g.NumEdges())
		for e := range assigned {
			assigned[e] = sup[e] > 3
		}
		ix := BuildCompressed(g, assigned, 1)
		mustInvariants(t, ix)
		if err := ix.CheckFreshSupports(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		full := Build(g)
		for e := int32(0); e < int32(g.NumEdges()); e++ {
			if assigned[e] {
				if ix.Indexed(e) {
					t.Errorf("seed %d: assigned edge %d is indexed", seed, e)
				}
				if len(ix.BloomsOfEdge(e, nil)) != 0 {
					t.Errorf("seed %d: assigned edge %d has incidences", seed, e)
				}
				continue
			}
			if got, want := ix.Support(e), full.Support(e); got != want {
				t.Errorf("seed %d: compressed support(e%d) = %d, want %d", seed, e, got, want)
			}
		}
		if ix.SizeBytes() > full.SizeBytes() {
			t.Errorf("seed %d: compressed index (%d B) larger than full (%d B)",
				seed, ix.SizeBytes(), full.SizeBytes())
		}

		// Removing every unassigned edge must never write to an
		// assigned edge and must keep the structure consistent.
		before := make([]int64, g.NumEdges())
		for e := range before {
			before[e] = ix.Support(int32(e))
		}
		for e := int32(0); e < int32(g.NumEdges()); e++ {
			if assigned[e] {
				continue
			}
			ix.RemoveEdge(e, 0, func(f int32, _ int64) {
				if assigned[f] {
					t.Fatalf("seed %d: update touched assigned edge %d", seed, f)
				}
			})
		}
		mustInvariants(t, ix)
		for e := range assigned {
			if assigned[e] && ix.Support(int32(e)) != before[e] {
				t.Errorf("seed %d: assigned edge %d support changed", seed, e)
			}
		}
	}
}

func TestTwinOf(t *testing.T) {
	g := testgraphs.Bloom(3)
	ix := Build(g)
	// Bloom(3): anchors are the two upper hubs; the twin of (u0, v) is
	// (u1, v) for every middle v.
	nl := int32(g.NumLower())
	for v := int32(0); v < nl; v++ {
		e0 := g.EdgeID(nl+0, v)
		e1 := g.EdgeID(nl+1, v)
		tw, ok := ix.TwinOf(0, e0)
		if !ok || tw != e1 {
			t.Errorf("TwinOf(B0, (u0,v%d)) = (%d,%v), want (%d,true)", v, tw, ok, e1)
		}
	}
	// An edge that participates in no bloom reports no twin.
	fig := testgraphs.Figure1()
	fix := Build(fig)
	gray := fig.EdgeID(int32(fig.NumLower()+3), 4) // (u3, v4), support 0
	if _, ok := fix.TwinOf(0, gray); ok {
		t.Errorf("TwinOf on unlinked edge must report false")
	}
}

func TestEmptyGraphIndex(t *testing.T) {
	var b bigraph.Builder
	g, _ := b.Build()
	ix := Build(g)
	mustInvariants(t, ix)
	if ix.NumBlooms() != 0 || ix.NumIncidences() != 0 {
		t.Errorf("empty graph produced a non-empty index: %v", ix)
	}
}

func TestStarIndexEmpty(t *testing.T) {
	ix := Build(testgraphs.Star(40))
	if ix.NumBlooms() != 0 {
		t.Errorf("star produced %d blooms, want 0", ix.NumBlooms())
	}
}
