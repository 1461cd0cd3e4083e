package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/testgraphs"
)

func readyEngine(t *testing.T, name string) *Engine {
	t.Helper()
	e := New()
	if err := e.Register(name, testgraphs.Figure1()); err != nil {
		t.Fatal(err)
	}
	if err := e.Decompose(context.Background(), name, Options{Algorithm: core.BiTBUPlusPlus}); err != nil {
		t.Fatal(err)
	}
	return e
}

// mustView returns the dataset's current View, failing the test when
// the engine has no servable dataset of that name.
func mustView(t testing.TB, e *Engine, name string) *View {
	t.Helper()
	vw, err := e.View(name)
	if err != nil {
		t.Fatalf("View(%q): %v", name, err)
	}
	return vw
}

func TestRegisterAndLifecycle(t *testing.T) {
	e := New()
	g := testgraphs.Figure1()
	if err := e.Register("fig1", g); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("fig1", g); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate register: %v, want ErrExists", err)
	}
	if _, err := mustView(t, e, "fig1").Phi(0, 0); !errors.Is(err, ErrNotDecomposed) {
		t.Fatalf("phi before decompose: %v, want ErrNotDecomposed", err)
	}
	// Support works pre-decomposition.
	if s, err := mustView(t, e, "fig1").Support(2, 1); err != nil || s != 3 {
		t.Fatalf("Support(2,1) = %d, %v; want 3", s, err)
	}
	if err := e.Decompose(context.Background(), "fig1", Options{}); err != nil {
		t.Fatal(err)
	}
	info, err := e.Info("fig1")
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != StatusReady || info.MaxPhi != 2 || info.Edges != 11 {
		t.Fatalf("info = %+v", info)
	}
	if _, err := e.View("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown dataset: %v, want ErrNotFound", err)
	}
	if err := e.Remove("fig1"); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("fig1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove: %v, want ErrNotFound", err)
	}
}

func TestQueriesMatchGroundTruth(t *testing.T) {
	vw := mustView(t, readyEngine(t, "fig1"), "fig1")
	for pair, want := range testgraphs.Figure1Bitruss() {
		got, err := vw.Phi(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Phi(%v) = %d, want %d", pair, got, want)
		}
	}
	if _, err := vw.Phi(0, 4); !errors.Is(err, ErrNoEdge) {
		t.Fatalf("absent edge: %v, want ErrNoEdge", err)
	}

	levels, err := vw.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(levels, []int64{0, 1, 2}) {
		t.Fatalf("levels = %v", levels)
	}

	// H2 of Figure 4(c): one community {u0,u1,u2} x {v0,v1}.
	cs, _, err := vw.CommunitiesPage(2, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || cs[0].Size != 6 ||
		!reflect.DeepEqual(cs[0].Upper, []int{0, 1, 2}) ||
		!reflect.DeepEqual(cs[0].Lower, []int{0, 1}) {
		t.Fatalf("communities(2) = %+v", cs)
	}

	c, ok, err := vw.CommunityOf(UpperLayer, 1, 2)
	if err != nil || !ok {
		t.Fatalf("CommunityOf(u1, 2): ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(c, cs[0]) {
		t.Fatalf("CommunityOf(u1, 2) = %+v, want %+v", c, cs[0])
	}
	// u3 has no edge of bitruss >= 2.
	if _, ok, err := vw.CommunityOf(UpperLayer, 3, 2); err != nil || ok {
		t.Fatalf("CommunityOf(u3, 2): ok=%v err=%v, want absent", ok, err)
	}
	// v0 via the lower layer.
	if c, ok, _ := vw.CommunityOf(LowerLayer, 0, 2); !ok || !reflect.DeepEqual(c, cs[0]) {
		t.Fatalf("CommunityOf(v0, 2) = %+v ok=%v", c, ok)
	}

	edges, err := vw.KBitrussEdges(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 6 {
		t.Fatalf("KBitrussEdges(2) = %v", edges)
	}
	for _, ed := range edges {
		if ed[2] < 2 {
			t.Fatalf("k-bitruss edge %v has phi < 2", ed)
		}
	}
}

func TestTopCommunities(t *testing.T) {
	e := New()
	if err := e.Register("chain", gen.BloomChain(3, 4)); err != nil {
		t.Fatal(err)
	}
	if err := e.Decompose(context.Background(), "chain", Options{}); err != nil {
		t.Fatal(err)
	}
	vw := mustView(t, e, "chain")
	all, _, err := vw.CommunitiesPage(3, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("communities = %d, want 3", len(all))
	}
	top, total, err := vw.CommunitiesPage(3, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 {
		t.Fatalf("total = %d, want 3", total)
	}
	if !reflect.DeepEqual(top, all[:2]) {
		t.Fatalf("top 2 = %+v, want prefix of %+v", top, all)
	}
}

func TestDecomposeCancellation(t *testing.T) {
	e := New()
	// A graph big enough that the decomposition does not win the race
	// against an already-cancelled context's first poll.
	if err := e.Register("big", gen.Zipf(400, 400, 8000, 1.3, 1.3, 7)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.Decompose(ctx, "big", Options{Algorithm: core.BiTBS})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled decompose: %v, want context.Canceled", err)
	}
	// Decompose returned because ctx died; wait for the background run
	// to record its terminal state before checking it.
	if err := e.Wait(context.Background(), "big"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after cancel: %v, want context.Canceled", err)
	}
	info, _ := e.Info("big")
	if info.Status != StatusFailed {
		t.Fatalf("status after cancel = %v, want failed", info.Status)
	}
	// A failed dataset can be re-decomposed.
	if err := e.Decompose(context.Background(), "big", Options{}); err != nil {
		t.Fatal(err)
	}
	if info, _ := e.Info("big"); info.Status != StatusReady {
		t.Fatalf("status after retry = %v, want ready", info.Status)
	}
}

// TestFailedRedecomposeKeepsServing: a dataset with a valid cached
// result must keep answering queries while a re-decomposition runs and
// after one fails — a cancelled re-run must not brick it.
func TestFailedRedecomposeKeepsServing(t *testing.T) {
	e := readyEngine(t, "fig1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = e.Decompose(ctx, "fig1", Options{Algorithm: core.BiTBS})
	if err := e.Wait(context.Background(), "fig1"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after cancelled re-run: %v", err)
	}
	info, _ := e.Info("fig1")
	if info.Status != StatusReady {
		t.Fatalf("status after failed re-run = %v, want ready (old result retained)", info.Status)
	}
	if info.Err == "" {
		t.Error("failed re-run's error not surfaced in info")
	}
	// The served result is still attributed to the algorithm that
	// produced it, not to the failed run's.
	if info.Algo != core.BiTBUPlusPlus.String() {
		t.Errorf("algo after failed re-run = %q, want %q", info.Algo, core.BiTBUPlusPlus)
	}
	if phi, err := mustView(t, e, "fig1").Phi(0, 0); err != nil || phi != 2 {
		t.Fatalf("Phi after failed re-run = %d, %v", phi, err)
	}
	// A successful re-run clears the recorded error.
	if err := e.Decompose(context.Background(), "fig1", Options{}); err != nil {
		t.Fatal(err)
	}
	if info, _ := e.Info("fig1"); info.Err != "" {
		t.Fatalf("error not cleared after successful re-run: %+v", info)
	}
}

// TestConcurrentQueriesDuringDecomposition is the engine race test: a
// ready dataset serves many concurrent mixed queries while a second
// dataset decomposes in the background, and double-decompose requests
// on the busy dataset are rejected rather than racing. Run with -race.
func TestConcurrentQueriesDuringDecomposition(t *testing.T) {
	e := readyEngine(t, "served")
	if err := e.Register("background", gen.Zipf(500, 500, 15000, 1.3, 1.3, 11)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StartDecompose(context.Background(), "background", Options{Algorithm: core.BiTBUPlusPlus, Workers: 2}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				served, err := e.View("served")
				if err != nil {
					t.Errorf("View: %v", err)
					return
				}
				switch i % 5 {
				case 0:
					if phi, err := served.Phi(0, 0); err != nil || phi != 2 {
						t.Errorf("Phi = %d, %v", phi, err)
						return
					}
				case 1:
					if cs, _, err := served.CommunitiesPage(int64(i%3), 0, -1); err != nil || len(cs) == 0 {
						t.Errorf("Communities: %v", err)
						return
					}
				case 2:
					if _, _, err := served.CommunityOf(LowerLayer, i%5, 1); err != nil {
						t.Errorf("CommunityOf: %v", err)
						return
					}
				case 3:
					// Queries against the in-flight dataset must fail
					// cleanly or succeed once it is ready — never race.
					bg, err := e.View("background")
					if err != nil {
						t.Errorf("View: %v", err)
						return
					}
					if _, err := bg.Phi(0, 0); err != nil &&
						!errors.Is(err, ErrNotDecomposed) && !errors.Is(err, ErrNoEdge) {
						t.Errorf("background Phi: %v", err)
						return
					}
				case 4:
					_ = e.List()
				}
			}
		}(w)
	}

	// While queries fly, a second decomposition of the busy dataset is
	// rejected (unless the first already finished, which is fine).
	_, err := e.StartDecompose(context.Background(), "background", Options{})
	if err != nil && !errors.Is(err, ErrBusy) {
		t.Fatalf("second decompose: %v", err)
	}

	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := e.Wait(ctx, "background"); err != nil {
		t.Fatal(err)
	}
	info, _ := e.Info("background")
	if info.Status != StatusReady {
		t.Fatalf("background status = %v", info.Status)
	}
}

// TestEngineMatchesDirectDecomposition cross-validates the engine's
// answers against a direct core + community computation.
func TestEngineMatchesDirectDecomposition(t *testing.T) {
	g := gen.Uniform(40, 45, 600, 3)
	e := New()
	if err := e.Register("g", g); err != nil {
		t.Fatal(err)
	}
	if err := e.Decompose(context.Background(), "g", Options{Algorithm: core.BiTPC}); err != nil {
		t.Fatal(err)
	}
	res, err := core.Decompose(g, core.Options{Algorithm: core.BiTBUPlusPlus})
	if err != nil {
		t.Fatal(err)
	}
	vw := mustView(t, e, "g")
	for _, k := range community.Levels(res.Phi) {
		want := community.Communities(g, res.Phi, k)
		got, _, err := vw.CommunitiesPage(k, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("level %d: %d communities, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i].Size != len(want[i].Edges) || got[i].K != k {
				t.Fatalf("level %d community %d: %+v vs %d edges", k, i, got[i], len(want[i].Edges))
			}
		}
	}
}
