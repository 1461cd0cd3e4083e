package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bigraph"
	"repro/internal/core"
	"repro/internal/gen"
)

func TestMutateBasic(t *testing.T) {
	ctx := context.Background()
	e := New()
	g := gen.Uniform(20, 20, 120, 1)
	if err := e.Register("d", g); err != nil {
		t.Fatal(err)
	}
	if err := e.Decompose(ctx, "d", Options{Algorithm: core.BiTBUPlusPlus}); err != nil {
		t.Fatal(err)
	}
	ed := g.Edge(0)
	u0, v0 := int(ed.U)-g.NumLower(), int(ed.V)

	res, err := e.Mutate(ctx, "d", MutateRequest{Delete: [][2]int{{u0, v0}}, Insert: [][2]int{{21, 3}}, Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied || !res.Maintained {
		t.Fatalf("mutation not applied/maintained: %+v", res)
	}
	if res.Version != 1 || res.Inserted != 1 || res.Deleted != 1 {
		t.Fatalf("unexpected result %+v", res)
	}
	info, _ := e.Info("d")
	if info.Version != 1 || info.Edges != g.NumEdges() {
		t.Fatalf("info %+v, want %d edges at version 1", info, g.NumEdges())
	}
	vw := mustView(t, e, "d")
	if _, err := vw.Phi(u0, v0); !errors.Is(err, ErrNoEdge) {
		t.Fatalf("deleted edge still resolves: %v", err)
	}
	if _, err := vw.Phi(21, 3); err != nil {
		t.Fatalf("inserted edge not queryable: %v", err)
	}
	log, err := e.MutationLog("d")
	if err != nil || len(log) != 1 || log[0].Version != 1 {
		t.Fatalf("log %v err %v", log, err)
	}

	// The maintained snapshot must equal a fresh decomposition.
	want, err := core.Decompose(vw.snap.g, core.Options{Algorithm: core.BiTBUPlusPlus})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vw.snap.res.Phi, want.Phi) {
		t.Fatal("maintained phi differs from fresh decomposition")
	}
}

func TestMutateNoOpAndPreDecompose(t *testing.T) {
	ctx := context.Background()
	e := New()
	if err := e.Register("d", gen.Uniform(10, 10, 50, 2)); err != nil {
		t.Fatal(err)
	}
	// Mutating an undecomposed dataset only rewrites the graph.
	res, err := e.Mutate(ctx, "d", MutateRequest{Insert: [][2]int{{11, 11}}, Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied || res.Maintained {
		t.Fatalf("pre-decomposition mutation %+v", res)
	}
	// A duplicate insert is a net no-op: version must not advance.
	res2, err := e.Mutate(ctx, "d", MutateRequest{Insert: [][2]int{{11, 11}}, Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Applied || res2.Version != res.Version {
		t.Fatalf("no-op advanced version: %+v then %+v", res, res2)
	}
	if _, err := e.Mutate(ctx, "d", MutateRequest{Insert: [][2]int{{-1, 0}}, Wait: true}); err == nil {
		t.Fatal("negative vertex accepted")
	}
	// Out-of-range pairs must be rejected before staging: one poisoned
	// request must not fail other clients' coalesced batches.
	if _, err := e.Mutate(ctx, "d", MutateRequest{Delete: [][2]int{{1 << 30, 0}}, Wait: true}); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	if _, err := e.Mutate(ctx, "absent", MutateRequest{Wait: true}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// TestMutateUnderLoad issues edge mutations concurrently with community
// queries and asserts every response is internally consistent with the
// single version it reports. Run under -race in CI.
func TestMutateUnderLoad(t *testing.T) {
	ctx := context.Background()
	e := New()
	base := gen.Uniform(40, 40, 400, 3)
	if err := e.Register("d", base); err != nil {
		t.Fatal(err)
	}
	if err := e.Decompose(ctx, "d", Options{Algorithm: core.BiTBUPlusPlus}); err != nil {
		t.Fatal(err)
	}

	// expected holds, per version, the independently recomputed truth:
	// phi per (u,v) pair and the ascending level list.
	type truth struct {
		phi    map[[2]int]int64
		levels []int64
	}
	var expMu sync.RWMutex
	expected := map[int64]*truth{}
	record := func(version int64, g *bigraph.Graph) {
		res, err := core.Decompose(g, core.Options{Algorithm: core.BiTBUPlusPlus})
		if err != nil {
			t.Error(err)
			return
		}
		tr := &truth{phi: make(map[[2]int]int64, g.NumEdges())}
		nl := g.NumLower()
		for eid := int32(0); eid < int32(g.NumEdges()); eid++ {
			ed := g.Edge(eid)
			tr.phi[[2]int{int(ed.U) - nl, int(ed.V)}] = res.Phi[eid]
		}
		lv := map[int64]bool{}
		for _, p := range res.Phi {
			lv[p] = true
		}
		for p := range lv {
			tr.levels = append(tr.levels, p)
		}
		sortInt64s(tr.levels)
		expMu.Lock()
		expected[version] = tr
		expMu.Unlock()
	}
	record(0, base)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Mutator: sequential batches, each waited, each recorded against
	// a shadow edge map before queriers can observe the next version.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(17))
		shadow := map[[2]int]bool{}
		nl := base.NumLower()
		for eid := int32(0); eid < int32(base.NumEdges()); eid++ {
			ed := base.Edge(eid)
			shadow[[2]int{int(ed.U) - nl, int(ed.V)}] = true
		}
		for b := 0; b < 15; b++ {
			var req MutateRequest
			req.Wait = true
			for i := 0; i < 1+rng.Intn(4); i++ {
				p := [2]int{rng.Intn(42), rng.Intn(42)}
				if rng.Intn(2) == 0 {
					req.Insert = append(req.Insert, p)
					shadow[p] = true
				} else {
					req.Delete = append(req.Delete, p)
					delete(shadow, p)
				}
			}
			res, err := e.Mutate(ctx, "d", req)
			if err != nil {
				t.Error(err)
				return
			}
			if res.Applied {
				var bld bigraph.Builder
				for p := range shadow {
					bld.AddEdge(p[0], p[1])
				}
				record(res.Version, bld.MustBuild())
			}
		}
	}()

	// Queriers: hammer community/phi/level queries through single-
	// version Views and validate against the recorded truth.
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				vw, err := e.View("d")
				if err != nil {
					t.Error(err)
					return
				}
				expMu.RLock()
				tr := expected[vw.Version()]
				expMu.RUnlock()
				if tr == nil {
					continue // version recorded after the swap; skip
				}
				levels, err := vw.Levels()
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(levels, tr.levels) {
					t.Errorf("version %d: levels %v, want %v", vw.Version(), levels, tr.levels)
					return
				}
				// A sampled pair must agree with the version's truth.
				for p, want := range tr.phi {
					if rng.Intn(8) != 0 {
						continue
					}
					got, err := vw.Phi(p[0], p[1])
					if err != nil {
						t.Errorf("version %d: phi(%v): %v", vw.Version(), p, err)
						return
					}
					if got != want {
						t.Errorf("version %d: phi(%v) = %d, want %d", vw.Version(), p, got, want)
						return
					}
					break
				}
				// Communities at a populated level: sizes must sum to the
				// number of edges at/above that level in this version.
				k := tr.levels[rng.Intn(len(tr.levels))]
				cs, total, err := vw.CommunitiesPage(k, 0, -1)
				if err != nil {
					t.Error(err)
					return
				}
				if total != len(cs) {
					t.Errorf("version %d: total %d != %d communities", vw.Version(), total, len(cs))
					return
				}
				sum := 0
				for _, c := range cs {
					sum += c.Size
				}
				wantEdges := 0
				for _, phi := range tr.phi {
					if phi >= k {
						wantEdges++
					}
				}
				if sum != wantEdges {
					t.Errorf("version %d level %d: community sizes sum %d, want %d", vw.Version(), k, sum, wantEdges)
					return
				}
			}
		}(int64(100 + q))
	}
	wg.Wait()
}

// TestMutateUnderLoadParallel drives concurrent waited mutations and
// snapshot queries with the maintenance fan-out enabled (workers 4)
// and GOMAXPROCS raised, so the epoch pipeline runs genuinely
// concurrent: epoch N+1 stages while epoch N maintains, queries serve
// the previous snapshot lock-free throughout, and every applied batch
// lands one mutation-log record. Run under -race in CI. Afterwards it
// audits the log against the ring contract — contiguous epoch numbers,
// the newest records retained at a small cap, the configured fan-out
// and per-phase wall times recorded — and cross-validates the final
// snapshot against a fresh decomposition.
func TestMutateUnderLoadParallel(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	ctx := context.Background()
	e := New()
	const logCap = 8
	e.SetMutationLogCap(logCap)
	base := gen.Uniform(60, 60, 700, 9)
	if err := e.Register("d", base); err != nil {
		t.Fatal(err)
	}
	if err := e.Decompose(ctx, "d", Options{Algorithm: core.BiTBUPlusPlus, Workers: 4}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var qwg, mwg sync.WaitGroup

	// Queriers hammer the served snapshot while epochs apply; every
	// View must be a coherent single-version decomposition.
	for q := 0; q < 3; q++ {
		qwg.Add(1)
		go func(seed int64) {
			defer qwg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				vw, err := e.View("d")
				if err != nil {
					t.Error(err)
					return
				}
				levels, err := vw.Levels()
				if err != nil || len(levels) == 0 {
					t.Errorf("version %d: levels %v err %v", vw.Version(), levels, err)
					return
				}
				if _, _, err := vw.CommunitiesPage(levels[rng.Intn(len(levels))], 0, 5); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(7 + q))
	}

	// Two mutators issue waited batches concurrently, so requests
	// coalesce across them and consecutive epochs overlap in the
	// pipeline. Each batch carries one guaranteed-fresh insert (a
	// mutator-owned new upper vertex, distinct lower per round) so
	// every round applies and the epoch counter outruns the ring cap.
	const rounds = 16
	for m := 0; m < 2; m++ {
		mwg.Add(1)
		go func(m int) {
			defer mwg.Done()
			rng := rand.New(rand.NewSource(int64(31 + m)))
			for b := 0; b < rounds; b++ {
				req := MutateRequest{Wait: true, Insert: [][2]int{{61 + m, (7*b + m) % 60}}}
				for i := 0; i < rng.Intn(3); i++ {
					p := [2]int{rng.Intn(62), rng.Intn(62)}
					if rng.Intn(2) == 0 {
						req.Insert = append(req.Insert, p)
					} else {
						req.Delete = append(req.Delete, p)
					}
				}
				if _, err := e.Mutate(ctx, "d", req); err != nil {
					t.Error(err)
					return
				}
			}
		}(m)
	}
	mwg.Wait()
	close(stop)
	qwg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Ring contract: a mutator's own waited rounds are sequential, so
	// batches from the SAME mutator never coalesce — at least `rounds`
	// epochs applied (concurrent rounds of the two mutators may merge
	// pairwise) and the cap-8 ring wrapped, keeping only the newest
	// records with contiguous epoch numbers.
	log, err := e.MutationLog("d")
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != logCap {
		t.Fatalf("log kept %d records, want the full ring of %d", len(log), logCap)
	}
	last := log[len(log)-1]
	if last.Epoch < rounds {
		t.Fatalf("last epoch %d, want >= %d applied batches", last.Epoch, rounds)
	}
	for i, rec := range log {
		if want := last.Epoch - int64(logCap-1-i); rec.Epoch != want {
			t.Fatalf("record %d: epoch %d, want contiguous %d", i, rec.Epoch, want)
		}
		if i > 0 && rec.Version <= log[i-1].Version {
			t.Fatalf("record %d: version %d not ascending after %d", i, rec.Version, log[i-1].Version)
		}
		if rec.Workers != 4 {
			t.Fatalf("record %d: workers %d, want 4", i, rec.Workers)
		}
		if rec.Requests < 1 || !rec.Maintained {
			t.Fatalf("record %d: %+v not a maintained batch", i, rec)
		}
		if rec.Duration <= 0 || rec.StageTime < 0 || rec.IndexTime < 0 || rec.PublishTime <= 0 {
			t.Fatalf("record %d: implausible phase times %+v", i, rec)
		}
		if !rec.FellBack && rec.Candidates > 0 && rec.PeelTime <= 0 {
			t.Fatalf("record %d: re-peeled %d candidates in no time: %+v", i, rec.Candidates, rec)
		}
	}

	// The pipelined, parallel-maintained end state must equal a fresh
	// decomposition of the final graph.
	vw, err := e.View("d")
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Decompose(vw.snap.g, core.Options{Algorithm: core.BiTBUPlusPlus})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vw.snap.res.Phi, want.Phi) {
		t.Fatal("maintained phi differs from fresh decomposition after parallel epochs")
	}
}

func sortInt64s(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestMutateBatching checks that fire-and-forget mutations coalesce
// into batches and drain.
func TestMutateBatching(t *testing.T) {
	ctx := context.Background()
	e := New()
	g := gen.Uniform(15, 15, 80, 5)
	baseEdges := g.NumEdges()
	if err := e.Register("d", g); err != nil {
		t.Fatal(err)
	}
	if err := e.Decompose(ctx, "d", Options{Algorithm: core.BiTBUPlusPlus}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := e.Mutate(ctx, "d", MutateRequest{Insert: [][2]int{{16 + i, 3}}}); err != nil {
			t.Fatal(err)
		}
	}
	// A waited sentinel mutation flushes everything staged before it.
	res, err := e.Mutate(ctx, "d", MutateRequest{Insert: [][2]int{{99, 9}}, Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	info, _ := e.Info("d")
	if info.Pending != 0 {
		t.Fatalf("pending %d after waited flush", info.Pending)
	}
	if info.Edges != baseEdges+21 {
		t.Fatalf("edges %d, want %d", info.Edges, baseEdges+21)
	}
	if res.Version < 1 {
		t.Fatalf("version %d", res.Version)
	}
	log, _ := e.MutationLog("d")
	if len(log) >= 21 {
		t.Fatalf("no coalescing: %d batches for 21 requests", len(log))
	}
}

// TestShutdownCancelsBackgroundWork covers the graceful-shutdown path:
// an in-flight decomposition is cancelled through the existing context
// plumbing and Shutdown returns once everything drained.
func TestShutdownCancelsBackgroundWork(t *testing.T) {
	ctx := context.Background()
	e := New()
	// Big enough for BiT-BS to run visibly long.
	if err := e.Register("slow", gen.Uniform(300, 300, 30000, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StartDecompose(ctx, "slow", Options{Algorithm: core.BiTBS}); err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := e.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := e.StartDecompose(ctx, "slow", Options{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown decompose err = %v", err)
	}
	if _, err := e.Mutate(ctx, "slow", MutateRequest{Insert: [][2]int{{0, 0}}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown mutate err = %v", err)
	}
	// Queries still work on whatever state is cached (none here: the
	// cancelled run reports its error through Wait).
	if err := e.Wait(ctx, "slow"); err == nil {
		t.Fatal("cancelled decomposition reported no error")
	}
}
