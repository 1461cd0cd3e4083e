package bloom

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bigraph"
	"repro/internal/butterfly"
	"repro/internal/gen"
)

// bigRandomGraph returns a graph with a few thousand start vertices, so
// every chunk of a multi-chunk build scans many of them.
func bigRandomGraph(seed int64) *bigraph.Graph {
	return randomGraph(1400, 1400, 9000, seed)
}

// setProcs sets GOMAXPROCS to p for the rest of the test. The builder
// caps its chunk count at GOMAXPROCS, so the chunk counts under test must
// not depend on the machine's CPU count.
func setProcs(t *testing.T, p int) {
	prev := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestBuildParallelIdentical: a multi-chunk build must produce an index
// that is field-for-field identical to the one-chunk one — same bloom
// ids, same incidence ids, same slot layout — not merely equivalent.
func TestBuildParallelIdentical(t *testing.T) {
	setProcs(t, 8)
	for seed := int64(0); seed < 3; seed++ {
		g := bigRandomGraph(seed)
		serial := BuildCompressed(g, nil, 1)
		for _, workers := range []int{2, 3, 8} {
			par := BuildCompressed(g, nil, workers)
			if err := par.CheckInvariants(); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if err := par.CheckFreshSupports(); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("seed %d workers %d: parallel index differs from serial", seed, workers)
			}
		}
	}
}

// TestBuildParallelSkewed repeats the identity check on a Zipf graph,
// whose hub vertices stress the work-balanced chunking.
func TestBuildParallelSkewed(t *testing.T) {
	setProcs(t, 8)
	g := gen.Zipf(2000, 2000, 12000, 1.4, 1.4, 5)
	serial := BuildCompressed(g, nil, 1)
	par := BuildCompressed(g, nil, 4)
	if err := par.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("parallel index differs from serial on skewed graph")
	}
}

// TestBuildParallelSupports validates the recovered supports against the
// independent counting algorithm.
func TestBuildParallelSupports(t *testing.T) {
	setProcs(t, 8)
	g := bigRandomGraph(11)
	ix := BuildCompressed(g, nil, 4)
	want := butterfly.EdgeSupports(g)
	for e, s := range ix.Supports() {
		if s != want[e] {
			t.Fatalf("support of e%d = %d, want %d", e, s, want[e])
		}
	}
}

// TestBuildParallelSmallFallsBack: tiny graphs split into chunks of a
// few start vertices still produce a valid, identical index.
func TestBuildParallelSmallFallsBack(t *testing.T) {
	setProcs(t, 8)
	g := randomGraph(20, 20, 120, 3)
	serial := BuildCompressed(g, nil, 1)
	par := BuildCompressed(g, nil, 8)
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("fallback index differs from serial")
	}
}

// TestBuildCompressedChunks: the compressed index (Algorithm 6) is the
// same, field for field, at every chunk count, for random, full and
// empty assignment masks, on uniform, hub-heavy and empty graphs.
func TestBuildCompressedChunks(t *testing.T) {
	setProcs(t, 8)
	var empty bigraph.Builder
	emptyG, err := empty.Build()
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*bigraph.Graph{
		"uniform": bigRandomGraph(21),
		"zipf":    gen.Zipf(2000, 2000, 12000, 1.4, 1.4, 9),
		"empty":   emptyG,
	}
	rng := rand.New(rand.NewSource(4))
	for name, g := range graphs {
		m := g.NumEdges()
		masks := map[string][]bool{
			"none-assigned": make([]bool, m),
			"all-assigned":  make([]bool, m),
		}
		for e := range masks["all-assigned"] {
			masks["all-assigned"][e] = true
		}
		for _, p := range []float64{0.1, 0.5, 0.9} {
			mask := make([]bool, m)
			for e := range mask {
				mask[e] = rng.Float64() < p
			}
			masks[fmt.Sprintf("random-%.1f", p)] = mask
		}
		for mname, assigned := range masks {
			want := BuildCompressed(g, assigned, 1)
			for _, workers := range []int{1, 2, 3, 8} {
				got := BuildCompressed(g, assigned, workers)
				if err := got.CheckInvariants(); err != nil {
					t.Fatalf("%s/%s workers %d: %v", name, mname, workers, err)
				}
				if err := got.CheckFreshSupports(); err != nil {
					t.Fatalf("%s/%s workers %d: %v", name, mname, workers, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s/%s workers %d: index differs from one chunk", name, mname, workers)
				}
			}
		}
	}
}

// TestBuildFanOutMemory: a caller-chosen worker count must not multiply
// the builder's transient memory. Each chunk holds a 4·|E|-byte count
// array, so the chunk count is capped at GOMAXPROCS; 64 requested
// workers must allocate about what 2 do at GOMAXPROCS 2.
func TestBuildFanOutMemory(t *testing.T) {
	setProcs(t, 2)
	g := randomGraph(1100, 1100, 10000, 8)
	if g.NumVertices() < 2048 {
		t.Fatalf("graph has %d vertices, want >= 2048", g.NumVertices())
	}
	alloc := func(workers int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		BuildCompressed(g, nil, workers)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	base := alloc(2)
	if wide := alloc(64); wide > base+base/4 {
		t.Fatalf("64 workers allocated %d B, 2 workers %d B", wide, base)
	}
}
