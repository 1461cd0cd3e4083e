package butterfly

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bigraph"
	"repro/internal/gen"
)

// TestDeltaSupportsInsertion cross-validates the insertion identity
// sup_new = sup_old + delta over random graphs and batches: the deltas
// computed on the post-insertion graph, at every worker count, must
// reconcile the full recounts of the two graphs.
func TestDeltaSupportsInsertion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		g := gen.Uniform(12, 12, 50+rng.Intn(40), rng.Int63())
		d := bigraph.NewDelta(g)
		for i := 0; i < 1+rng.Intn(5); i++ {
			d.Insert(rng.Intn(12), rng.Intn(12))
		}
		g2, rm, err := d.Apply()
		if err != nil {
			t.Fatal(err)
		}
		oldTotal, oldSup := CountAndSupports(g)
		newTotal, newSup := CountAndSupports(g2)

		for _, workers := range []int{1, 2, 8} {
			delta, _, created := DeltaSupportsDense(g2, rm.Inserted, workers)
			if newTotal-oldTotal != created {
				t.Fatalf("trial %d workers %d: created = %d, want %d", trial, workers, created, newTotal-oldTotal)
			}
			for e2 := int32(0); e2 < int32(g2.NumEdges()); e2++ {
				carried := int64(0)
				if e1 := rm.NewToOld[e2]; e1 >= 0 {
					carried = oldSup[e1]
				}
				if got := carried + delta[e2]; got != newSup[e2] {
					t.Fatalf("trial %d workers %d: edge %d: carried %d + delta %d = %d, want %d",
						trial, workers, e2, carried, delta[e2], got, newSup[e2])
				}
			}
		}
	}
}

// TestDeltaSupportsDeletion does the same for the deletion identity,
// with deltas computed on the pre-deletion graph.
func TestDeltaSupportsDeletion(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		g := gen.Uniform(12, 12, 60+rng.Intn(40), rng.Int63())
		nl := g.NumLower()
		d := bigraph.NewDelta(g)
		for i := 0; i < 1+rng.Intn(5); i++ {
			ed := g.Edge(int32(rng.Intn(g.NumEdges())))
			d.Delete(int(ed.U)-nl, int(ed.V))
		}
		g2, rm, err := d.Apply()
		if err != nil {
			t.Fatal(err)
		}
		oldTotal, oldSup := CountAndSupports(g)
		newTotal, newSup := CountAndSupports(g2)

		for _, workers := range []int{1, 2, 8} {
			delta, _, destroyed := DeltaSupportsDense(g, rm.Deleted, workers)
			if oldTotal-newTotal != destroyed {
				t.Fatalf("trial %d workers %d: destroyed = %d, want %d", trial, workers, destroyed, oldTotal-newTotal)
			}
			for e1, e2 := range rm.OldToNew {
				if e2 < 0 {
					continue
				}
				if got := oldSup[e1] - delta[e1]; got != newSup[e2] {
					t.Fatalf("trial %d workers %d: edge %d->%d: %d - %d = %d, want %d",
						trial, workers, e1, e2, oldSup[e1], delta[e1], got, newSup[e2])
				}
			}
		}
	}
}

// parallelTestGraphs mirrors the maintenance cross-validation matrix:
// the eight structurally diverse generated models.
func parallelTestGraphs() []*bigraph.Graph {
	return []*bigraph.Graph{
		gen.Uniform(15, 15, 90, 1),
		gen.Uniform(30, 30, 120, 2),
		gen.Zipf(20, 20, 140, 1.4, 1.2, 3),
		gen.Blocks(24, 24, []gen.BlockConfig{{Upper: 6, Lower: 6, Density: 0.8}, {Upper: 5, Lower: 5, Density: 0.9}}, 40, 4),
		gen.BloomChain(4, 5),
		gen.ZipfPlusUniform(18, 18, 80, 1.6, 1.6, 40, 5),
		gen.Uniform(10, 40, 130, 6),
		gen.HubAndSpokes(7),
	}
}

// recountBatchButterflies is the definition-level reference for
// DeltaSupportsDense: a butterfly contains a batch edge iff it is gone
// once the batch is removed, so the per-edge count is the full recount
// of g minus the full recount of g without the batch (a batch edge
// loses all of its butterflies).
func recountBatchButterflies(g *bigraph.Graph, batch []int32) ([]int64, int64) {
	total, sup := CountAndSupports(g)
	keep := make([]bool, g.NumEdges())
	for e := range keep {
		keep[e] = true
	}
	for _, e := range batch {
		keep[e] = false
	}
	sub := g.InducedByEdges(keep)
	subTotal, subSup := CountAndSupports(sub.G)
	for se, pe := range sub.ParentEdge {
		sup[pe] -= subSup[se]
	}
	return sup, total - subTotal
}

// TestDeltaSupportsDenseIdentical requires the dense accumulator, at
// 1, 2 and 8 workers, to agree exactly with the definition-level
// recount: same per-edge counts, same total, and a touched list that
// holds each edge with a non-zero count exactly once. The sharded runs
// are forced onto real goroutine interleavings by raising GOMAXPROCS,
// so -race exercises the shared-array atomic claims.
func TestDeltaSupportsDenseIdentical(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(78))
	for gi, g := range parallelTestGraphs() {
		m := g.NumEdges()
		for trial := 0; trial < 4; trial++ {
			size := 1 + rng.Intn(m/2+1)
			perm := rng.Perm(m)
			batch := make([]int32, size)
			for i := 0; i < size; i++ {
				batch[i] = int32(perm[i])
			}
			wantDelta, wantTotal := recountBatchButterflies(g, batch)
			wantTouched := 0
			for _, c := range wantDelta {
				if c != 0 {
					wantTouched++
				}
			}
			for _, workers := range []int{1, 2, 8} {
				delta, touched, total := DeltaSupportsDense(g, batch, workers)
				if total != wantTotal {
					t.Fatalf("graph %d trial %d workers %d: total %d, want %d", gi, trial, workers, total, wantTotal)
				}
				if len(delta) != m {
					t.Fatalf("graph %d trial %d workers %d: delta length %d, want %d", gi, trial, workers, len(delta), m)
				}
				for e, c := range delta {
					if c != wantDelta[e] {
						t.Fatalf("graph %d trial %d workers %d: delta[%d] = %d, want %d",
							gi, trial, workers, e, c, wantDelta[e])
					}
				}
				if len(touched) != wantTouched {
					t.Fatalf("graph %d trial %d workers %d: %d touched edges, want %d",
						gi, trial, workers, len(touched), wantTouched)
				}
				seen := make(map[int32]bool, len(touched))
				for _, e := range touched {
					if seen[e] {
						t.Fatalf("graph %d trial %d workers %d: edge %d touched twice", gi, trial, workers, e)
					}
					seen[e] = true
					if delta[e] == 0 {
						t.Fatalf("graph %d trial %d workers %d: touched edge %d has zero delta", gi, trial, workers, e)
					}
				}
			}
		}
	}
}

// TestDeltaSupportsDenseEmpty covers the trivial shapes: an empty batch
// and a worker count exceeding the batch.
func TestDeltaSupportsDenseEmpty(t *testing.T) {
	g := gen.Uniform(10, 10, 40, 3)
	arr, touched, total := DeltaSupportsDense(g, nil, 8)
	if len(arr) != g.NumEdges() || len(touched) != 0 || total != 0 {
		t.Fatalf("empty dense batch returned %d touched (%d)", len(touched), total)
	}
	arr, _, total = DeltaSupportsDense(g, []int32{0}, 64)
	want, wantTotal := recountBatchButterflies(g, []int32{0})
	if total != wantTotal {
		t.Fatalf("single-edge batch total %d, want %d", total, wantTotal)
	}
	for e, c := range arr {
		if c != want[e] {
			t.Fatalf("single-edge batch: delta[%d] = %d, want %d", e, c, want[e])
		}
	}
}

// TestDeltaSupportsDenseSingleEdge checks the per-edge enumeration: a
// one-edge batch attributes every butterfly of that edge to it, so its
// count and the total both equal the edge's support.
func TestDeltaSupportsDenseSingleEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		g := gen.Uniform(10, 10, 50, rng.Int63())
		for e := int32(0); e < int32(g.NumEdges()); e += 3 {
			delta, _, total := DeltaSupportsDense(g, []int32{e}, 1)
			if want := EdgeSupport(g, e); total != want || delta[e] != want {
				t.Fatalf("trial %d: edge %d: %d butterflies (delta %d), want %d", trial, e, total, delta[e], want)
			}
		}
	}
}

// TestPhiUpperBoundMarked checks the bound is a sound upper bound on
// the naive bitruss numbers, never exceeds the edge's own support, and
// leaves the mark array as it found it.
func TestPhiUpperBoundMarked(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		g := gen.Uniform(9, 9, 45, rng.Int63())
		_, sup := CountAndSupports(g)
		phi := naivePhi(g)
		mark := make([]int32, g.NumVertices())
		for i := range mark {
			mark[i] = -1
		}
		for e := int32(0); e < int32(g.NumEdges()); e++ {
			b := PhiUpperBoundMarked(g, e, sup, mark)
			if b > sup[e] {
				t.Fatalf("bound %d exceeds support %d", b, sup[e])
			}
			if b < phi[e] {
				t.Fatalf("trial %d: edge %d: bound %d below φ %d", trial, e, b, phi[e])
			}
			for v, x := range mark {
				if x != -1 {
					t.Fatalf("trial %d: edge %d left mark[%d] = %d", trial, e, v, x)
				}
			}
		}
	}
}

// naivePhi is a tiny definition-based decomposition for the bound test
// (duplicating core.NaiveDecompose would import a cycle).
func naivePhi(g *bigraph.Graph) []int64 {
	m := g.NumEdges()
	phi := make([]int64, m)
	alive := make([]bool, m)
	for e := range alive {
		alive[e] = true
	}
	remaining := m
	for k := int64(0); remaining > 0; k++ {
		for {
			sub := g.InducedByEdges(alive)
			if sub.G.NumEdges() == 0 {
				remaining = 0
				break
			}
			sup := BruteForceEdgeSupports(sub.G)
			removed := false
			for se, s := range sup {
				if s < k+1 {
					pe := sub.ParentEdge[se]
					phi[pe] = k
					alive[pe] = false
					remaining--
					removed = true
				}
			}
			if !removed {
				break
			}
		}
	}
	return phi
}
