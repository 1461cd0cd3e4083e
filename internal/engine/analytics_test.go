package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/testgraphs"
	"repro/internal/tip"
)

func TestViewTipMemoised(t *testing.T) {
	e := New()
	if err := e.Register("fig1", testgraphs.Figure1()); err != nil {
		t.Fatal(err)
	}
	// Tip needs only the graph: it must answer before any decomposition.
	vw, err := e.View("fig1")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := vw.Tip(UpperLayer)
	if err != nil {
		t.Fatal(err)
	}
	want := tip.Decompose(testgraphs.Figure1(), true)
	if !reflect.DeepEqual(r1, want) {
		t.Fatalf("engine tip differs from direct decomposition: %+v vs %+v", r1, want)
	}
	// Memoised: a second View of the same snapshot returns the same
	// pointer.
	vw2, _ := e.View("fig1")
	r2, err := vw2.Tip(UpperLayer)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("tip result not memoised per snapshot")
	}
	// The other layer is independent.
	low, err := vw.Tip(LowerLayer)
	if err != nil {
		t.Fatal(err)
	}
	if len(low.Theta) != testgraphs.Figure1().NumLower() {
		t.Fatalf("lower tip has %d vertices", len(low.Theta))
	}
}

func TestViewTipConcurrentSingleflight(t *testing.T) {
	e := New()
	if err := e.Register("g", testgraphs.Bloom(8)); err != nil {
		t.Fatal(err)
	}
	vw, _ := e.View("g")
	const n = 16
	results := make([]*tip.Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := vw.Tip(UpperLayer)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent tip calls returned distinct results")
		}
	}
}

func TestEagerTipOption(t *testing.T) {
	e := New()
	e.SetLazyTip(false)
	if err := e.Register("fig1", testgraphs.Figure1()); err != nil {
		t.Fatal(err)
	}
	// Lazy analytics off, no eager tip: queries are rejected.
	if _, err := mustView(t, e, "fig1").Tip(UpperLayer); !errors.Is(err, ErrTipNotComputed) {
		t.Fatalf("tip with lazy off: %v, want ErrTipNotComputed", err)
	}
	if _, err := mustView(t, e, "fig1").Theta(UpperLayer, 0); !errors.Is(err, ErrTipNotComputed) {
		t.Fatalf("theta with lazy off: %v, want ErrTipNotComputed", err)
	}
	// Decomposing with Options.Tip materialises both layers eagerly.
	if err := e.Decompose(context.Background(), "fig1", Options{Tip: true}); err != nil {
		t.Fatal(err)
	}
	res, err := mustView(t, e, "fig1").Tip(UpperLayer)
	if err != nil {
		t.Fatal(err)
	}
	if want := tip.Decompose(testgraphs.Figure1(), true); !reflect.DeepEqual(res, want) {
		t.Fatalf("eager tip differs from direct decomposition")
	}
	if _, err := mustView(t, e, "fig1").Tip(LowerLayer); err != nil {
		t.Fatalf("lower layer not materialised eagerly: %v", err)
	}
	// A mutation installs a fresh snapshot without tip state: rejected
	// again until the next eager decomposition.
	if _, err := e.Mutate(context.Background(), "fig1", MutateRequest{Insert: [][2]int{{0, 4}}, Wait: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := mustView(t, e, "fig1").Tip(UpperLayer); !errors.Is(err, ErrTipNotComputed) {
		t.Fatalf("tip after mutation with lazy off: %v, want ErrTipNotComputed", err)
	}
	// Re-enabling lazy analytics restores on-demand computation.
	e.SetLazyTip(true)
	if _, err := mustView(t, e, "fig1").Tip(UpperLayer); err != nil {
		t.Fatal(err)
	}
}

func TestTheta(t *testing.T) {
	e := New()
	if err := e.Register("fig1", testgraphs.Figure1()); err != nil {
		t.Fatal(err)
	}
	// Figure 1 tip numbers (see tip package tests): θ(u0..u3) = 2,2,2,1.
	for u, want := range []int64{2, 2, 2, 1} {
		got, err := mustView(t, e, "fig1").Theta(UpperLayer, u)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("θ(u%d) = %d, want %d", u, got, want)
		}
	}
	if _, err := mustView(t, e, "fig1").Theta(UpperLayer, 99); !errors.Is(err, ErrNoVertex) {
		t.Fatalf("out-of-range vertex: %v, want ErrNoVertex", err)
	}
	if _, err := mustView(t, e, "fig1").Theta(LowerLayer, -1); !errors.Is(err, ErrNoVertex) {
		t.Fatalf("negative vertex: %v, want ErrNoVertex", err)
	}
}

func TestMemoryStatsTipBytes(t *testing.T) {
	e := readyEngine(t, "fig1")
	info, err := e.Info("fig1")
	if err != nil {
		t.Fatal(err)
	}
	if info.Mem.TipBytes != 0 {
		t.Fatalf("TipBytes before any tip query = %d, want 0", info.Mem.TipBytes)
	}
	base := info.Mem.TotalBytes
	res, err := mustView(t, e, "fig1").Tip(UpperLayer)
	if err != nil {
		t.Fatal(err)
	}
	info, _ = e.Info("fig1")
	if info.Mem.TipBytes != res.SizeBytes() {
		t.Fatalf("TipBytes = %d, want %d", info.Mem.TipBytes, res.SizeBytes())
	}
	if info.Mem.TotalBytes != base+res.SizeBytes() {
		t.Fatalf("TotalBytes = %d, want %d", info.Mem.TotalBytes, base+res.SizeBytes())
	}
}

func TestAnalyticsJobsVisible(t *testing.T) {
	e := readyEngine(t, "fig1")
	if _, err := mustView(t, e, "fig1").Tip(UpperLayer); err != nil {
		t.Fatal(err)
	}
	if _, err := mustView(t, e, "fig1").Bicliques(2, 2); err != nil {
		t.Fatal(err)
	}
	jobs, err := e.Jobs("fig1")
	if err != nil {
		t.Fatal(err)
	}
	var sawTip, sawBic bool
	for _, j := range jobs {
		switch j.Algo {
		case "tip:upper":
			sawTip = true
			if j.State != JobDone {
				t.Errorf("tip job state = %v", j.State)
			}
		case "bicliques(2,2)":
			sawBic = true
			if j.State != JobDone {
				t.Errorf("biclique job state = %v", j.State)
			}
		}
	}
	if !sawTip || !sawBic {
		t.Fatalf("job log missing analytics entries (tip=%v bicliques=%v): %+v", sawTip, sawBic, jobs)
	}
}

func TestBicliquesMemoisedAndLimited(t *testing.T) {
	e := New()
	if err := e.Register("g", testgraphs.Figure1()); err != nil {
		t.Fatal(err)
	}
	vw, _ := e.View("g")
	r1, err := vw.Bicliques(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Bicliques) == 0 {
		t.Fatal("figure1 has maximal bicliques")
	}
	r2, err := vw.Bicliques(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("biclique enumeration not memoised per (snapshot, thresholds)")
	}
	// The engine limit rejects oversized enumerations — and memoises the
	// failure for the same thresholds on the same snapshot.
	e.SetBicliqueLimit(1)
	if _, err := vw.Bicliques(1, 2); !errors.Is(err, ErrEnumerationTooLarge) {
		t.Fatalf("limited enumeration: %v, want ErrEnumerationTooLarge", err)
	}
	if _, err := vw.Bicliques(1, 2); !errors.Is(err, ErrEnumerationTooLarge) {
		t.Fatalf("memoised failure: %v, want ErrEnumerationTooLarge", err)
	}
	// The already-memoised (1,1) result survives the tighter limit.
	if r3, err := vw.Bicliques(1, 1); err != nil || r3 != r1 {
		t.Fatalf("memoised success evicted by limit change: %v", err)
	}
	e.SetBicliqueLimit(0) // restore default
	// A fresh snapshot drops the memo: the failure clears.
	if _, err := e.Mutate(context.Background(), "g", MutateRequest{Insert: [][2]int{{0, 4}}, Wait: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := mustView(t, e, "g").Bicliques(1, 2); err != nil {
		t.Fatalf("fresh snapshot still rejects: %v", err)
	}
}

func TestBicliquesPage(t *testing.T) {
	e := New()
	if err := e.Register("g", testgraphs.Figure1()); err != nil {
		t.Fatal(err)
	}
	vw, _ := e.View("g")
	full, err := vw.Bicliques(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := len(full.Bicliques)
	var walked int
	for off := 0; off < total; {
		page, tot, err := vw.BicliquesPage(1, 1, off, 2)
		if err != nil {
			t.Fatal(err)
		}
		if tot != total {
			t.Fatalf("total = %d, want %d", tot, total)
		}
		for i, bc := range page {
			if !reflect.DeepEqual(bc, full.Bicliques[off+i]) {
				t.Fatalf("page window mismatch at rank %d", off+i)
			}
		}
		walked += len(page)
		off += len(page)
	}
	if walked != total {
		t.Fatalf("walked %d, want %d", walked, total)
	}
	// Past-the-end and negative-limit windows.
	if page, _, err := vw.BicliquesPage(1, 1, total+5, 2); err != nil || len(page) != 0 {
		t.Fatalf("past-the-end page = %v, %v", page, err)
	}
	if page, _, err := vw.BicliquesPage(1, 1, 0, -1); err != nil || len(page) != total {
		t.Fatalf("negative limit page has %d, want %d", len(page), total)
	}
}

func TestTipSurvivesDecomposition(t *testing.T) {
	// Eager tip during StartDecompose reuses the decompose job; verify
	// the published snapshot carries both layers.
	e := New()
	if err := e.Register("g", testgraphs.Bloom(5)); err != nil {
		t.Fatal(err)
	}
	if err := e.Decompose(context.Background(), "g", Options{Algorithm: core.BiTBUPlusPlus, Tip: true}); err != nil {
		t.Fatal(err)
	}
	e.SetLazyTip(false) // proves the state was materialised eagerly
	defer e.SetLazyTip(true)
	for _, layer := range []Layer{UpperLayer, LowerLayer} {
		if _, err := mustView(t, e, "g").Tip(layer); err != nil {
			t.Fatalf("layer %v: %v", layer, err)
		}
	}
}
