package tip

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bigraph"
	"repro/internal/butterfly"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/testgraphs"
)

// naiveTip is a definition-based reference: peel to the (k+1)-tip
// fixpoint with full recounting, for k = 0, 1, 2, ...
func naiveTip(g *bigraph.Graph, upper bool) []int64 {
	n := int32(g.NumVertices())
	nl := int32(g.NumLower())
	var lo, hi int32
	if upper {
		lo, hi = nl, n
	} else {
		lo, hi = 0, nl
	}
	theta := make([]int64, hi-lo)
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	remaining := int(hi - lo)
	for k := int64(0); remaining > 0; k++ {
		for {
			counts := pairButterflies(g, lo, hi, alive)
			removed := false
			for i, c := range counts {
				v := lo + int32(i)
				if alive[v] && c < k+1 {
					theta[i] = k
					alive[v] = false
					remaining--
					removed = true
				}
			}
			if !removed {
				break
			}
		}
	}
	return theta
}

// pairButterflies is the definition-level count naiveTip recounts
// with: for each vertex v of [lo, hi), considering only vertices marked
// alive (nil alive = all), the number of butterflies containing v,
// Σ_w C(common(v, w), 2) over the other vertices w of v's layer.
func pairButterflies(g *bigraph.Graph, lo, hi int32, alive []bool) []int64 {
	n := int32(g.NumVertices())
	counts := make([]int64, hi-lo)
	cnt := make([]int32, n)
	touched := make([]int32, 0, 64)
	for v := lo; v < hi; v++ {
		if alive != nil && !alive[v] {
			continue
		}
		touched = touched[:0]
		nbrs, _ := g.Neighbors(v)
		for _, x := range nbrs {
			if alive != nil && !alive[x] {
				continue
			}
			nbrs2, _ := g.Neighbors(x)
			for _, w := range nbrs2 {
				if w <= v { // count each pair once from the larger id
					continue
				}
				if alive != nil && !alive[w] {
					continue
				}
				if cnt[w] == 0 {
					touched = append(touched, w)
				}
				cnt[w]++
			}
		}
		for _, w := range touched {
			c := int64(cnt[w])
			cnt[w] = 0
			if c < 2 {
				continue
			}
			b := c * (c - 1) / 2
			counts[v-lo] += b
			counts[w-lo] += b
		}
	}
	return counts
}

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

func TestFigure1TipNumbers(t *testing.T) {
	g := testgraphs.Figure1()
	res := Decompose(g, true)
	// Authors u0..u3 participate in 2, 2, 3, 1 butterflies; peeling
	// yields tip numbers 2, 2, 2, 1.
	want := []int64{2, 2, 2, 1}
	for u, w := range want {
		if res.Theta[u] != w {
			t.Errorf("θ(u%d) = %d, want %d", u, res.Theta[u], w)
		}
	}
	if res.MaxTheta != 2 {
		t.Errorf("MaxTheta = %d, want 2", res.MaxTheta)
	}
	if res.TotalButterflies != 4 {
		t.Errorf("⋈G = %d, want 4", res.TotalButterflies)
	}
}

func TestBloomClosedForm(t *testing.T) {
	const k = 20
	g := testgraphs.Bloom(k)
	up := Decompose(g, true)
	wantUp := int64(k * (k - 1) / 2)
	for u, th := range up.Theta {
		if th != wantUp {
			t.Errorf("θ(u%d) = %d, want %d", u, th, wantUp)
		}
	}
	low := Decompose(g, false)
	for v, th := range low.Theta {
		if th != k-1 {
			t.Errorf("θ(v%d) = %d, want %d", v, th, k-1)
		}
	}
}

func TestCompleteBicliqueClosedForm(t *testing.T) {
	a, b := 5, 6
	g := testgraphs.CompleteBiclique(a, b)
	res := Decompose(g, true)
	want := int64(a-1) * int64(b*(b-1)/2)
	for u, th := range res.Theta {
		if th != want {
			t.Errorf("θ(u%d) = %d, want %d", u, th, want)
		}
	}
}

func TestStarAllZero(t *testing.T) {
	g := testgraphs.Star(30)
	for _, upper := range []bool{true, false} {
		res := Decompose(g, upper)
		for v, th := range res.Theta {
			if th != 0 {
				t.Errorf("upper=%v: θ(%d) = %d, want 0", upper, v, th)
			}
		}
	}
}

func TestAgainstNaiveRandom(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(12, 14, 90, seed)
		for _, upper := range []bool{true, false} {
			got := Decompose(g, upper)
			want := naiveTip(g, upper)
			for v := range want {
				if got.Theta[v] != want[v] {
					t.Errorf("seed %d upper=%v: θ(%d) = %d, want %d",
						seed, upper, v, got.Theta[v], want[v])
				}
			}
		}
	}
}

// TestAgainstNaiveWide checks both layers of skewed and structured
// graphs against the definition-level reference, and ⋈G against the
// global counter. Skewed degrees are where the peel's compaction drops
// the most entries.
func TestAgainstNaiveWide(t *testing.T) {
	graphs := map[string]*bigraph.Graph{
		"figure2a(6)":   testgraphs.Figure2a(6),
		"bloom(9)":      testgraphs.Bloom(9),
		"biclique(4,7)": testgraphs.CompleteBiclique(4, 7),
		"biclique(6,3)": testgraphs.CompleteBiclique(6, 3),
	}
	for seed := int64(1); seed <= 4; seed++ {
		graphs[fmt.Sprintf("zipf(seed %d)", seed)] = gen.Zipf(60, 90, 800, 1.2, 1.0, seed)
	}
	for name, g := range graphs {
		wantTotal := butterfly.Count(g)
		for _, upper := range []bool{true, false} {
			got := Decompose(g, upper)
			if got.TotalButterflies != wantTotal {
				t.Errorf("%s upper=%v: ⋈G = %d, want %d", name, upper, got.TotalButterflies, wantTotal)
			}
			want := naiveTip(g, upper)
			var wantMax int64
			for v := range want {
				if got.Theta[v] != want[v] {
					t.Errorf("%s upper=%v: θ(%d) = %d, want %d", name, upper, v, got.Theta[v], want[v])
				}
				wantMax = max(wantMax, want[v])
			}
			if got.MaxTheta != wantMax {
				t.Errorf("%s upper=%v: MaxTheta = %d, want %d", name, upper, got.MaxTheta, wantMax)
			}
		}
	}
}

// TestPeelReadsClosedForm pins the peel's adjacency reads on K(a, b).
// Peeling a layer of p vertices whose other layer has o vertices walks
// all o lists per peeled vertex; the compacting walk drops each peeled
// vertex as it goes, so the lists hold p, p-1, ..., 1 entries when read:
// o·p(p+1)/2 reads in total, where a walk that skips but keeps peeled
// entries reads o·p².
func TestPeelReadsClosedForm(t *testing.T) {
	for _, ab := range [][2]int64{{1, 1}, {5, 6}, {7, 3}, {12, 12}} {
		g := testgraphs.CompleteBiclique(int(ab[0]), int(ab[1]))
		for _, upper := range []bool{true, false} {
			p, o := ab[0], ab[1]
			if !upper {
				p, o = o, p
			}
			lo, hi := layer(g, upper)
			_, vcnt := butterfly.CountLayerVertices(g, upper)
			res := &Result{Theta: make([]int64, hi-lo)}
			if got, want := peel(g, lo, hi, vcnt[lo:hi], res, nil), o*p*(p+1)/2; got != want {
				t.Errorf("K(%d,%d) upper=%v: %d reads, want %d", ab[0], ab[1], upper, got, want)
			}
		}
	}
}

func TestTotalButterfliesMatchesCounting(t *testing.T) {
	g := randomGraph(25, 30, 300, 3)
	res := Decompose(g, true)
	if want := butterfly.Count(g); res.TotalButterflies != want {
		t.Errorf("⋈G = %d, want %d", res.TotalButterflies, want)
	}
}

func TestKTipVertices(t *testing.T) {
	g := testgraphs.Figure1()
	res := Decompose(g, true)
	k2 := res.KTipVertices(2)
	if len(k2) != 3 {
		t.Fatalf("2-tip has %d vertices, want 3 (u0,u1,u2)", len(k2))
	}
	for _, v := range k2 {
		if v == 3 {
			t.Errorf("u3 must not be in the 2-tip")
		}
	}
	if got := res.KTipVertices(res.MaxTheta + 1); len(got) != 0 {
		t.Errorf("tip above MaxTheta must be empty, got %v", got)
	}
}

func TestThetaNeverExceedsCount(t *testing.T) {
	g := randomGraph(20, 25, 250, 9)
	_, vcnt := butterfly.CountVertices(g)
	res := Decompose(g, false)
	for v, th := range res.Theta {
		if th > vcnt[v] {
			t.Errorf("θ(%d) = %d exceeds butterfly count %d", v, th, vcnt[v])
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	var b bigraph.Builder
	g, _ := b.Build()
	res := Decompose(g, true)
	if len(res.Theta) != 0 || res.MaxTheta != 0 {
		t.Errorf("non-trivial result on empty graph: %+v", res)
	}
}

func TestProgressReporting(t *testing.T) {
	g := randomGraph(40, 50, 600, 7)
	var sawCounting, sawPeel, sawDone bool
	res := DecomposeOptions(g, true, Options{
		Progress: func(stage core.Stage, done, total int64) {
			switch stage {
			case core.StageCounting:
				sawCounting = true
			case core.StagePeel:
				sawPeel = true
			case core.StageDone:
				sawDone = true
				if done != total {
					t.Errorf("done stage: %d/%d", done, total)
				}
			}
		},
	})
	if res == nil || len(res.Theta) != g.NumUpper() {
		t.Fatal("bad result")
	}
	if !sawCounting || !sawPeel || !sawDone {
		t.Fatalf("stage coverage counting=%v peel=%v done=%v", sawCounting, sawPeel, sawDone)
	}
}

func TestSizeBytes(t *testing.T) {
	res := Decompose(testgraphs.Bloom(5), true)
	if want := int64(len(res.Theta))*8 + 16; res.SizeBytes() != want {
		t.Fatalf("SizeBytes = %d, want %d", res.SizeBytes(), want)
	}
	var nilRes *Result
	if nilRes.SizeBytes() != 0 {
		t.Fatal("nil result must account as 0 bytes")
	}
}

func BenchmarkTipDecompose(b *testing.B) {
	g := randomGraph(2000, 2000, 20000, 42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := Decompose(g, true); res.MaxTheta == 0 {
			b.Fatal("degenerate graph")
		}
	}
}

// BenchmarkTipDecomposeSkew peels both layers of a skewed Zipf graph,
// a tenth of the perfbench ready-skew subject's size.
func BenchmarkTipDecomposeSkew(b *testing.B) {
	g := gen.Zipf(2640, 7950, 18900, 1.2, 1.0, 101)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if up, low := Decompose(g, true), Decompose(g, false); up.MaxTheta == 0 || low.MaxTheta == 0 {
			b.Fatal("degenerate graph")
		}
	}
}
