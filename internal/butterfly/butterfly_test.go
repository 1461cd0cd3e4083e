package butterfly

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bigraph"
	"repro/internal/testgraphs"
)

func TestFigure1Supports(t *testing.T) {
	g := testgraphs.Figure1()
	total, sup := CountAndSupports(g)
	if total != 4 {
		t.Errorf("Count = %d, want 4 (three in B*0 plus one in B*1)", total)
	}
	for pair, want := range testgraphs.Figure1Supports() {
		u := int32(g.NumLower() + pair[0])
		v := int32(pair[1])
		e := g.EdgeID(u, v)
		if e < 0 {
			t.Fatalf("edge (u%d,v%d) missing", pair[0], pair[1])
		}
		if got := sup[e]; got != want {
			t.Errorf("support(u%d,v%d) = %d, want %d", pair[0], pair[1], got, want)
		}
	}
}

func TestBloomClosedForm(t *testing.T) {
	for _, k := range []int{2, 3, 10, 101} {
		g := testgraphs.Bloom(k)
		total, sup := CountAndSupports(g)
		want := int64(k) * int64(k-1) / 2
		if total != want {
			t.Errorf("Bloom(%d): count = %d, want %d (Lemma 1)", k, total, want)
		}
		for e, s := range sup {
			if s != int64(k-1) {
				t.Errorf("Bloom(%d): support(e%d) = %d, want %d (Lemma 2)", k, e, s, k-1)
			}
		}
	}
}

func TestCompleteBicliqueClosedForm(t *testing.T) {
	for _, ab := range [][2]int{{2, 2}, {3, 4}, {5, 5}, {4, 7}} {
		a, b := ab[0], ab[1]
		g := testgraphs.CompleteBiclique(a, b)
		total, sup := CountAndSupports(g)
		want := int64(a*(a-1)/2) * int64(b*(b-1)/2)
		if total != want {
			t.Errorf("K(%d,%d): count = %d, want %d", a, b, total, want)
		}
		for e, s := range sup {
			if s != int64((a-1)*(b-1)) {
				t.Errorf("K(%d,%d): support(e%d) = %d, want %d", a, b, e, s, (a-1)*(b-1))
			}
		}
	}
}

func TestStarHasNoButterflies(t *testing.T) {
	g := testgraphs.Star(50)
	total, sup := CountAndSupports(g)
	if total != 0 {
		t.Errorf("star count = %d, want 0", total)
	}
	for e, s := range sup {
		if s != 0 {
			t.Errorf("star support(e%d) = %d, want 0", e, s)
		}
	}
}

func TestFigure2aSingleButterfly(t *testing.T) {
	g := testgraphs.Figure2a(50)
	total, sup := CountAndSupports(g)
	if total != 1 {
		t.Fatalf("Figure2a count = %d, want exactly 1", total)
	}
	u1 := int32(g.NumLower() + 1)
	v1 := int32(1)
	e := g.EdgeID(u1, v1)
	if sup[e] != 1 {
		t.Errorf("support(u1,v1) = %d, want 1", sup[e])
	}
}

func TestEmptyGraph(t *testing.T) {
	var b bigraph.Builder
	g, _ := b.Build()
	total, sup := CountAndSupports(g)
	if total != 0 || len(sup) != 0 {
		t.Errorf("empty graph: total=%d len(sup)=%d", total, len(sup))
	}
	if KMax(sup) != 0 {
		t.Errorf("KMax(empty) != 0")
	}
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

func TestAgainstBruteForceRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomGraph(15, 20, 120, seed)
		total, sup := CountAndSupports(g)
		wantTotal := BruteForceCount(g)
		if total != wantTotal {
			t.Errorf("seed %d: count = %d, brute force = %d", seed, total, wantTotal)
		}
		wantSup := BruteForceEdgeSupports(g)
		for e := range sup {
			if sup[e] != wantSup[e] {
				t.Errorf("seed %d: support(e%d) = %d, brute force = %d", seed, e, sup[e], wantSup[e])
			}
		}
	}
}

func TestSupportSumIsFourTimesCount(t *testing.T) {
	// Every butterfly is a (2,2)-biclique with exactly 4 edges, so
	// Σ_e ⋈e = 4⋈G (used in the proof of Lemma 8).
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(30, 40, 400, seed)
		total, sup := CountAndSupports(g)
		var sum int64
		for _, s := range sup {
			sum += s
		}
		if sum != 4*total {
			t.Errorf("seed %d: Σ⋈e = %d, want 4⋈G = %d", seed, sum, 4*total)
		}
		// Lemma 8 upper bound: ⋈G <= m^2.
		m := int64(g.NumEdges())
		if total > m*m {
			t.Errorf("seed %d: ⋈G = %d exceeds m^2 = %d", seed, total, m*m)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	setProcs(t, 8)
	for seed := int64(0); seed < 4; seed++ {
		g := randomGraph(300, 400, 5000, seed)
		st, ss := CountAndSupportsWorkers(g, 1)
		for _, workers := range []int{2, 3, 8} {
			pt, ps := CountAndSupportsWorkers(g, workers)
			if pt != st {
				t.Errorf("seed %d workers %d: total %d != %d", seed, workers, pt, st)
			}
			for e := range ss {
				if ps[e] != ss[e] {
					t.Fatalf("seed %d workers %d: sup(e%d) %d != %d", seed, workers, e, ps[e], ss[e])
				}
			}
		}
	}
}

func TestParallelSmallGraphFallback(t *testing.T) {
	setProcs(t, 8)
	g := testgraphs.Figure1()
	pt, ps := CountAndSupportsWorkers(g, 4)
	st, ss := CountAndSupportsWorkers(g, 1)
	if pt != st {
		t.Errorf("fallback total %d != %d", pt, st)
	}
	for e := range ss {
		if ps[e] != ss[e] {
			t.Errorf("fallback sup(e%d) %d != %d", e, ps[e], ss[e])
		}
	}
}

// setProcs sets GOMAXPROCS to p for the rest of the test. The counter
// caps its fan-out at GOMAXPROCS, so the worker counts under test must
// not depend on the machine's CPU count.
func setProcs(t *testing.T, p int) {
	prev := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestCountFanOutMemory: a caller-chosen worker count must not multiply
// the counter's transient memory. Each worker holds 8·|E| + 4·|V|
// bytes, so the fan-out is capped at GOMAXPROCS; 64 requested workers
// must allocate about what 2 do at GOMAXPROCS 2.
func TestCountFanOutMemory(t *testing.T) {
	setProcs(t, 2)
	g := randomGraph(1100, 1100, 10000, 8)
	if g.NumVertices() < 2048 {
		t.Fatalf("graph has %d vertices, want >= 2048", g.NumVertices())
	}
	alloc := func(workers int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		CountAndSupportsWorkers(g, workers)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	base := alloc(2)
	if wide := alloc(64); wide > base+base/4 {
		t.Fatalf("64 workers allocated %d B, 2 workers %d B", wide, base)
	}
}

func TestCountVertices(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randomGraph(12, 15, 80, seed)
		total, vcnt := CountVertices(g)
		if bf := BruteForceCount(g); total != bf {
			t.Fatalf("seed %d: total %d != brute force %d", seed, total, bf)
		}
		want := make([]int64, g.NumVertices())
		Enumerate(g, func(b Butterfly) {
			want[b.U1]++
			want[b.U2]++
			want[b.V1]++
			want[b.V2]++
		})
		for v := range vcnt {
			if vcnt[v] != want[v] {
				t.Errorf("seed %d: vertex %d count = %d, want %d", seed, v, vcnt[v], want[v])
			}
		}
		var sum int64
		for _, c := range vcnt {
			sum += c
		}
		if sum != 4*total {
			t.Errorf("seed %d: Σ vertex counts = %d, want %d", seed, sum, 4*total)
		}
	}
}

// TestCountLayerVertices checks that restricting the count to one layer
// keeps ⋈G and that layer's counts exact and leaves the other at zero.
func TestCountLayerVertices(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randomGraph(12, 15, 80, seed)
		total, all := CountVertices(g)
		for _, upper := range []bool{true, false} {
			lt, vcnt := CountLayerVertices(g, upper)
			if lt != total {
				t.Errorf("seed %d upper=%v: total %d, want %d", seed, upper, lt, total)
			}
			for v := range vcnt {
				want := all[v]
				if g.IsUpper(int32(v)) != upper {
					want = 0
				}
				if vcnt[v] != want {
					t.Errorf("seed %d upper=%v: vertex %d count = %d, want %d", seed, upper, v, vcnt[v], want)
				}
			}
		}
	}
}

// kmaxReference computes the h-index by sorting, as the paper describes
// ("after sorting the edges in non-ascending order of their butterfly
// supports").
func kmaxReference(sup []int64) int64 {
	s := append([]int64(nil), sup...)
	sort.Slice(s, func(i, j int) bool { return s[i] > s[j] })
	k := int64(0)
	for i, v := range s {
		if v >= int64(i+1) {
			k = int64(i + 1)
		} else {
			break
		}
	}
	return k
}

func TestKMaxHandCases(t *testing.T) {
	cases := []struct {
		sup  []int64
		want int64
	}{
		{nil, 0},
		{[]int64{0, 0, 0}, 0},
		{[]int64{5}, 1},
		{[]int64{1, 1, 1}, 1},
		{[]int64{3, 3, 3}, 3},
		{[]int64{10, 9, 5, 2, 1}, 3},
		{[]int64{100, 100, 100, 100}, 4},
	}
	for _, c := range cases {
		if got := KMax(c.sup); got != c.want {
			t.Errorf("KMax(%v) = %d, want %d", c.sup, got, c.want)
		}
	}
}

func TestKMaxMatchesSortReference(t *testing.T) {
	f := func(raw []uint16) bool {
		sup := make([]int64, len(raw))
		for i, r := range raw {
			sup[i] = int64(r % 500)
		}
		return KMax(sup) == kmaxReference(sup)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEnumerateOrderCanonical(t *testing.T) {
	g := testgraphs.Figure1()
	var got []Butterfly
	Enumerate(g, func(b Butterfly) { got = append(got, b) })
	if len(got) != 4 {
		t.Fatalf("enumerated %d butterflies, want 4", len(got))
	}
	for _, b := range got {
		if b.U1 >= b.U2 || b.V1 >= b.V2 {
			t.Errorf("butterfly %+v not canonical", b)
		}
		if !g.IsUpper(b.U1) || !g.IsUpper(b.U2) || g.IsUpper(b.V1) || g.IsUpper(b.V2) {
			t.Errorf("butterfly %+v has endpoints in wrong layers", b)
		}
	}
}
