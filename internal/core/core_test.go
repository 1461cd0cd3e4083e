package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bigraph"
	"repro/internal/testgraphs"
)

var allAlgorithms = []Algorithm{BiTBS, BiTBU, BiTBUPlus, BiTBUPlusPlus, BiTPC}

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

func decompose(t *testing.T, g *bigraph.Graph, a Algorithm) *Result {
	t.Helper()
	res, err := Decompose(g, Options{Algorithm: a})
	if err != nil {
		t.Fatalf("%v: %v", a, err)
	}
	return res
}

func TestFigure1AllAlgorithms(t *testing.T) {
	g := testgraphs.Figure1()
	want := testgraphs.Figure1Bitruss()
	for _, a := range allAlgorithms {
		res := decompose(t, g, a)
		for pair, phi := range want {
			e := g.EdgeID(int32(g.NumLower()+pair[0]), int32(pair[1]))
			if got := res.Phi[e]; got != phi {
				t.Errorf("%v: φ(u%d,v%d) = %d, want %d", a, pair[0], pair[1], got, phi)
			}
		}
		if res.MaxPhi != 2 {
			t.Errorf("%v: MaxPhi = %d, want 2", a, res.MaxPhi)
		}
		if res.Metrics.TotalButterflies != 4 {
			t.Errorf("%v: ⋈G = %d, want 4", a, res.Metrics.TotalButterflies)
		}
	}
}

func TestClosedFormsAllAlgorithms(t *testing.T) {
	cases := []struct {
		name string
		g    *bigraph.Graph
		want func(e int32) int64
	}{
		{"K(4,5)", testgraphs.CompleteBiclique(4, 5), func(int32) int64 { return 12 }},
		{"K(3,3)", testgraphs.CompleteBiclique(3, 3), func(int32) int64 { return 4 }},
		{"Bloom(10)", testgraphs.Bloom(10), func(int32) int64 { return 9 }},
		{"Star(20)", testgraphs.Star(20), func(int32) int64 { return 0 }},
		{"Figure2a(12)", testgraphs.Figure2a(12), nil}, // validated against naive below
	}
	for _, c := range cases {
		naive := NaiveDecompose(c.g)
		for _, a := range allAlgorithms {
			res := decompose(t, c.g, a)
			for e := range res.Phi {
				want := naive[e]
				if c.want != nil {
					want = c.want(int32(e))
				}
				if res.Phi[e] != want {
					t.Errorf("%s/%v: φ(e%d) = %d, want %d", c.name, a, e, res.Phi[e], want)
				}
			}
		}
	}
}

func TestRandomAgainstNaive(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(10, 12, 70, seed)
		want := NaiveDecompose(g)
		for _, a := range allAlgorithms {
			res := decompose(t, g, a)
			for e := range want {
				if res.Phi[e] != want[e] {
					t.Errorf("seed %d %v: φ(e%d) = %d, want %d", seed, a, e, res.Phi[e], want[e])
				}
			}
		}
	}
}

func TestMediumRandomAllAgree(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := randomGraph(60, 80, 1500, seed)
		ref := decompose(t, g, BiTBU)
		for _, a := range []Algorithm{BiTBS, BiTBUPlus, BiTBUPlusPlus, BiTPC} {
			res := decompose(t, g, a)
			for e := range ref.Phi {
				if res.Phi[e] != ref.Phi[e] {
					t.Fatalf("seed %d: %v and BiT-BU disagree at e%d: %d vs %d",
						seed, a, e, res.Phi[e], ref.Phi[e])
				}
			}
		}
	}
}

func TestPCTauSweepAgrees(t *testing.T) {
	g := randomGraph(50, 60, 1200, 11)
	ref := decompose(t, g, BiTBUPlusPlus)
	for _, tau := range []float64{0.02, 0.05, 0.1, 0.2, 0.5, 1.0} {
		res, err := Decompose(g, Options{Algorithm: BiTPC, Tau: tau})
		if err != nil {
			t.Fatalf("tau %v: %v", tau, err)
		}
		for e := range ref.Phi {
			if res.Phi[e] != ref.Phi[e] {
				t.Fatalf("tau %v: φ(e%d) = %d, want %d", tau, e, res.Phi[e], ref.Phi[e])
			}
		}
		if res.Metrics.Iterations < 1 {
			t.Errorf("tau %v: iterations = %d", tau, res.Metrics.Iterations)
		}
	}
}

func TestBadOptions(t *testing.T) {
	g := testgraphs.Figure1()
	if _, err := Decompose(g, Options{Algorithm: BiTPC, Tau: 1.5}); err == nil {
		t.Errorf("tau > 1 accepted")
	}
	if _, err := Decompose(g, Options{Algorithm: BiTPC, Tau: -0.1}); err == nil {
		t.Errorf("negative tau accepted")
	}
	if _, err := Decompose(g, Options{Algorithm: Algorithm(99)}); err == nil {
		t.Errorf("unknown algorithm accepted")
	}
}

func TestEmptyGraph(t *testing.T) {
	var b bigraph.Builder
	g, _ := b.Build()
	for _, a := range allAlgorithms {
		res := decompose(t, g, a)
		if len(res.Phi) != 0 || res.MaxPhi != 0 {
			t.Errorf("%v: non-trivial result on empty graph", a)
		}
	}
}

func TestSingleEdge(t *testing.T) {
	g, _ := bigraph.FromEdges([][2]int{{0, 0}})
	for _, a := range allAlgorithms {
		res := decompose(t, g, a)
		if res.Phi[0] != 0 {
			t.Errorf("%v: φ = %d, want 0", a, res.Phi[0])
		}
	}
}

func TestPhiNeverExceedsSupport(t *testing.T) {
	g := randomGraph(40, 50, 900, 5)
	for _, a := range allAlgorithms {
		res := decompose(t, g, a)
		if res.MaxPhi > res.MaxSupport {
			t.Errorf("%v: MaxPhi %d > MaxSupport %d", a, res.MaxPhi, res.MaxSupport)
		}
		if res.Metrics.KMax < res.MaxPhi {
			t.Errorf("%v: kmax bound %d below MaxPhi %d", a, res.Metrics.KMax, res.MaxPhi)
		}
	}
}

func TestUpdateAccounting(t *testing.T) {
	g := randomGraph(50, 60, 1200, 7)
	bounds := []int64{5, 10, 20, 40}
	var updates = map[Algorithm]int64{}
	for _, a := range allAlgorithms {
		res, err := Decompose(g, Options{Algorithm: a, HistogramBounds: bounds})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Metrics.UpdatesByOrigSupport) != len(bounds)+1 {
			t.Fatalf("%v: histogram has %d buckets", a, len(res.Metrics.UpdatesByOrigSupport))
		}
		var sum int64
		for _, h := range res.Metrics.UpdatesByOrigSupport {
			sum += h
		}
		if sum != res.Metrics.SupportUpdates {
			t.Errorf("%v: histogram sums to %d, SupportUpdates = %d", a, sum, res.Metrics.SupportUpdates)
		}
		updates[a] = res.Metrics.SupportUpdates
	}
	// The batch optimisations exist to reduce update counts (Lemma 9,
	// Figure 10): the batched variants must not perform more updates
	// than plain BiT-BU.
	if updates[BiTBUPlus] > updates[BiTBU] {
		t.Errorf("BiT-BU+ made %d updates, more than BiT-BU's %d", updates[BiTBUPlus], updates[BiTBU])
	}
	if updates[BiTBUPlusPlus] > updates[BiTBU] {
		t.Errorf("BiT-BU++ made %d updates, more than BiT-BU's %d", updates[BiTBUPlusPlus], updates[BiTBU])
	}
}

// TestBatchPeelsShareWrites pins the fusion of BiT-BU++'s two batch
// optimisations with an exact counter: walking each touched bloom once
// (Algorithm 5) must not cost extra support writes, so BiT-BU++ makes
// exactly BiT-BU+'s one write per touched surviving edge per batch
// (Lemma 9), and both still give the definition-based φ.
func TestBatchPeelsShareWrites(t *testing.T) {
	graphs := map[string]*bigraph.Graph{
		"Figure1":      testgraphs.Figure1(),
		"K(4,5)":       testgraphs.CompleteBiclique(4, 5),
		"Bloom(10)":    testgraphs.Bloom(10),
		"Figure2a(12)": testgraphs.Figure2a(12),
		"Star(20)":     testgraphs.Star(20),
	}
	for seed := int64(0); seed < 4; seed++ {
		graphs[fmt.Sprintf("random(12,14,90,%d)", seed)] = randomGraph(12, 14, 90, seed)
		graphs[fmt.Sprintf("random(30,35,500,%d)", seed)] = randomGraph(30, 35, 500, seed)
	}
	for name, g := range graphs {
		want := NaiveDecompose(g)
		bup := decompose(t, g, BiTBUPlus)
		bupp := decompose(t, g, BiTBUPlusPlus)
		if bupp.Metrics.SupportUpdates != bup.Metrics.SupportUpdates {
			t.Errorf("%s: BiT-BU++ made %d support updates, BiT-BU+ %d", name, bupp.Metrics.SupportUpdates, bup.Metrics.SupportUpdates)
		}
		for e := range want {
			if bup.Phi[e] != want[e] || bupp.Phi[e] != want[e] {
				t.Fatalf("%s: φ(e%d) = %d (BU+), %d (BU++), want %d", name, e, bup.Phi[e], bupp.Phi[e], want[e])
			}
		}
	}
}

func TestMetricsTimings(t *testing.T) {
	g := randomGraph(50, 60, 1200, 9)
	bs := decompose(t, g, BiTBS)
	if bs.Metrics.CountingTime <= 0 || bs.Metrics.PeelTime <= 0 {
		t.Errorf("BiT-BS: counting/peel times not recorded: %+v", bs.Metrics)
	}
	bu := decompose(t, g, BiTBU)
	if bu.Metrics.IndexTime <= 0 {
		t.Errorf("BiT-BU: index time not recorded")
	}
	if bu.Metrics.PeakIndexBytes <= 0 {
		t.Errorf("BiT-BU: index size not recorded")
	}
	pc := decompose(t, g, BiTPC)
	if pc.Metrics.Iterations < 1 {
		t.Errorf("BiT-PC: iterations = %d", pc.Metrics.Iterations)
	}
	if pc.Metrics.PeakIndexBytes <= 0 {
		t.Errorf("BiT-PC: index size not recorded")
	}
}

func TestAlgorithmString(t *testing.T) {
	want := map[Algorithm]string{
		BiTBS: "BiT-BS", BiTBU: "BiT-BU", BiTBUPlus: "BiT-BU+",
		BiTBUPlusPlus: "BiT-BU++", BiTPC: "BiT-PC",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("String(%d) = %q, want %q", int(a), a.String(), s)
		}
	}
	if Algorithm(42).String() == "" {
		t.Errorf("unknown algorithm must still stringify")
	}
}

func TestParallelCountingSameResult(t *testing.T) {
	g := randomGraph(80, 90, 2500, 13)
	serial := decompose(t, g, BiTPC)
	par, err := Decompose(g, Options{Algorithm: BiTPC, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for e := range serial.Phi {
		if par.Phi[e] != serial.Phi[e] {
			t.Fatalf("parallel counting changed φ(e%d)", e)
		}
	}
}
