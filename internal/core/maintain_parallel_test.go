package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bigraph"
	"repro/internal/gen"
)

// TestMaintainParallelCrossValidation chains randomized batches over
// the same eight graph models as TestMaintainCrossValidation, running
// every batch through Maintain at workers 1, 2 and 8. All three must
// be byte-identical to each other (Phi, Sup, summary fields and the
// locality stats), and the workers-8 result — which feeds the next
// batch — is additionally cross-validated against a fresh
// decomposition. Run under -race in CI, this also exercises the
// closure CAS claims and the coarse/fine peel over the compressed
// closure subgraph.
func TestMaintainParallelCrossValidation(t *testing.T) {
	graphs := []*bigraph.Graph{
		gen.Uniform(15, 15, 90, 1),
		gen.Uniform(30, 30, 120, 2),
		gen.Zipf(20, 20, 140, 1.4, 1.2, 3),
		gen.Blocks(24, 24, []gen.BlockConfig{{Upper: 6, Lower: 6, Density: 0.8}, {Upper: 5, Lower: 5, Density: 0.9}}, 40, 4),
		gen.BloomChain(4, 5),
		gen.ZipfPlusUniform(18, 18, 80, 1.6, 1.6, 40, 5),
		gen.Uniform(10, 40, 130, 6),
		gen.HubAndSpokes(7),
	}
	rng := rand.New(rand.NewSource(99))
	batches := 0
	for gi, g := range graphs {
		res, err := Decompose(g, Options{Algorithm: BiTBUPlusPlus})
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		for b := 0; b < 26; b++ {
			d := randomDelta(g, rng, 6)
			g2, rm, err := d.Apply()
			if err != nil {
				t.Fatal(err)
			}
			type run struct {
				res *Result
				st  *MaintainStats
			}
			var runs [3]run
			for wi, workers := range []int{1, 2, 8} {
				r, st, err := Maintain(g, res, g2, rm, MaintainOptions{MaxCandidateFraction: 1, Workers: workers})
				if err != nil {
					t.Fatalf("graph %d batch %d workers %d: %v", gi, b, workers, err)
				}
				if st.FellBack {
					t.Fatalf("graph %d batch %d workers %d: unexpected fallback", gi, b, workers)
				}
				runs[wi] = run{res: r, st: st}
			}
			serial := runs[0]
			for wi, workers := range []int{1, 2, 8} {
				r := runs[wi]
				for e := range serial.res.Phi {
					if r.res.Phi[e] != serial.res.Phi[e] {
						t.Fatalf("graph %d batch %d workers %d: phi[%d] = %d, serial %d",
							gi, b, workers, e, r.res.Phi[e], serial.res.Phi[e])
					}
					if r.res.Sup[e] != serial.res.Sup[e] {
						t.Fatalf("graph %d batch %d workers %d: sup[%d] = %d, serial %d",
							gi, b, workers, e, r.res.Sup[e], serial.res.Sup[e])
					}
				}
				if r.res.MaxPhi != serial.res.MaxPhi || r.res.MaxSupport != serial.res.MaxSupport ||
					r.res.Metrics.TotalButterflies != serial.res.Metrics.TotalButterflies {
					t.Fatalf("graph %d batch %d workers %d: summary diverged", gi, b, workers)
				}
				if r.st.KStar != serial.st.KStar || r.st.Frozen != serial.st.Frozen ||
					r.st.Seeds != serial.st.Seeds || r.st.Candidates != serial.st.Candidates ||
					r.st.ChangedPhi != serial.st.ChangedPhi || r.st.MaxChangedLevel != serial.st.MaxChangedLevel {
					t.Fatalf("graph %d batch %d workers %d: stats diverged: %+v vs serial %+v",
						gi, b, workers, *r.st, *serial.st)
				}
			}
			// Ground truth, and advance the chain with the parallel result
			// so later batches maintain parallel-produced state.
			want, err := Decompose(g2, Options{Algorithm: BiTBUPlusPlus})
			if err != nil {
				t.Fatal(err)
			}
			last := runs[2].res
			for e := range want.Phi {
				if last.Phi[e] != want.Phi[e] {
					t.Fatalf("graph %d batch %d: parallel phi[%d] = %d, decompose %d",
						gi, b, e, last.Phi[e], want.Phi[e])
				}
			}
			g, res = g2, last
			batches++
		}
	}
	if batches < 200 {
		t.Fatalf("only %d batches validated, want >= 200", batches)
	}
}

// TestMaintainParallelGomaxprocs re-runs a slice of the
// cross-validation with GOMAXPROCS raised, so the goroutine fan-out
// paths (sharded delta, striden K*, CAS closure claims, multi-range
// coarse/fine peel) genuinely execute concurrently even on single-core
// CI hosts — maintainSpawn clamps at GOMAXPROCS, which would otherwise
// keep every stage inline. Run under -race this is the concurrency
// test for the whole parallel maintenance pipeline.
func TestMaintainParallelGomaxprocs(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	graphs := []*bigraph.Graph{
		gen.Uniform(30, 30, 120, 2),
		gen.Zipf(20, 20, 140, 1.4, 1.2, 3),
		gen.Blocks(24, 24, []gen.BlockConfig{{Upper: 6, Lower: 6, Density: 0.8}, {Upper: 5, Lower: 5, Density: 0.9}}, 40, 4),
	}
	rng := rand.New(rand.NewSource(101))
	for gi, g := range graphs {
		res, err := Decompose(g, Options{Algorithm: BiTBUPlusPlus})
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		for b := 0; b < 8; b++ {
			d := randomDelta(g, rng, 6)
			g2, rm, err := d.Apply()
			if err != nil {
				t.Fatal(err)
			}
			want, err := Decompose(g2, Options{Algorithm: BiTBUPlusPlus})
			if err != nil {
				t.Fatal(err)
			}
			var last *Result
			for _, workers := range []int{1, 2, 4, 8} {
				r, _, err := Maintain(g, res, g2, rm, MaintainOptions{MaxCandidateFraction: 1, Workers: workers})
				if err != nil {
					t.Fatalf("graph %d batch %d workers %d: %v", gi, b, workers, err)
				}
				for e := range want.Phi {
					if r.Phi[e] != want.Phi[e] || r.Sup[e] != want.Sup[e] {
						t.Fatalf("graph %d batch %d workers %d: edge %d diverged (phi %d/%d sup %d/%d)",
							gi, b, workers, e, r.Phi[e], want.Phi[e], r.Sup[e], want.Sup[e])
					}
				}
				last = r
			}
			g, res = g2, last
		}
	}
}

// TestMaintainParallelFallback forces overflow with a tiny candidate
// threshold at workers 8 and checks the fallback keeps the exactness
// contract (the parallel closure detects overflow at level
// boundaries; the resulting full decomposition must still match).
func TestMaintainParallelFallback(t *testing.T) {
	g := gen.Blocks(20, 20, []gen.BlockConfig{{Upper: 8, Lower: 8, Density: 0.9}}, 60, 7)
	res, err := Decompose(g, Options{Algorithm: BiTBUPlusPlus})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(123))
	fellBack := 0
	for b := 0; b < 10; b++ {
		d := randomDelta(g, rng, 4)
		var st *MaintainStats
		g, res, st = checkMaintain(t, g, res, d, MaintainOptions{MaxCandidateFraction: 0.0001, Workers: 8})
		if !st.FellBack && st.Seeds > 0 {
			t.Fatalf("batch %d: expected fallback with tiny threshold (seeds %d)", b, st.Seeds)
		}
		if st.FellBack {
			fellBack++
		}
	}
	if fellBack == 0 {
		t.Fatal("no batch exercised the fallback path")
	}
}

// TestMaintainParallelLocality mirrors TestMaintainLocality at workers
// 4: a single-edge mutation must stay local on the parallel path too.
func TestMaintainParallelLocality(t *testing.T) {
	g := gen.Uniform(400, 400, 2400, 51)
	res, err := Decompose(g, Options{Algorithm: BiTBUPlusPlus})
	if err != nil {
		t.Fatal(err)
	}
	d := bigraph.NewDelta(g)
	d.Insert(3, 5)
	g2, rm, err := d.Apply()
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := Maintain(g, res, g2, rm, MaintainOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.FellBack {
		t.Fatal("single-edge insert fell back on a sparse graph")
	}
	if st.Candidates > g2.NumEdges()/10 {
		t.Fatalf("candidates %d of %d edges: no locality", st.Candidates, g2.NumEdges())
	}
}
