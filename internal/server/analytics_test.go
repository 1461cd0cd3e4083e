package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/testgraphs"
	"repro/internal/tip"
)

// TestAnalyticsEndpoints drives /tip, /theta and /bicliques through
// the typed client against a known graph and checks the answers agree
// with the in-process tip package.
func TestAnalyticsEndpoints(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	registerFigure1(t, c, "fig1")
	ds := c.Dataset("fig1")

	// Tip summary: figure 1 upper layer has θ = 2,2,2,1, ⋈G = 4.
	res, err := ds.Tip(ctx, client.UpperLayer)
	if err != nil {
		t.Fatal(err)
	}
	if res.Layer != "upper" || res.Vertices != 4 || res.MaxTheta != 2 || res.TotalButterflies != 4 {
		t.Fatalf("tip summary = %+v", res)
	}
	if want := int64(4)*8 + 16; res.SizeBytes != want {
		t.Fatalf("tip SizeBytes = %d, want %d", res.SizeBytes, want)
	}
	if res.Vertex != nil || res.Theta != nil {
		t.Fatalf("summary must not carry a vertex: %+v", res)
	}

	// Per-vertex θ through both routes: /theta and /tip?v=.
	for u, want := range []int64{2, 2, 2, 1} {
		th, err := ds.Theta(ctx, client.UpperLayer, u)
		if err != nil {
			t.Fatal(err)
		}
		if th.Vertex != int64(u) || th.Theta != want {
			t.Fatalf("theta(u%d) = %+v, want θ=%d", u, th, want)
		}
	}

	// Default layer is upper; lower layer answers independently.
	low, err := ds.Tip(ctx, client.LowerLayer)
	if err != nil {
		t.Fatal(err)
	}
	if low.Layer != "lower" || low.Vertices != 5 {
		t.Fatalf("lower tip = %+v", low)
	}

	// Stable error codes surface through the client.
	if _, err := ds.Theta(ctx, client.UpperLayer, 999); !client.HasCode(err, client.CodeVertexNotFound) {
		t.Fatalf("out-of-range vertex: %v, want %s", err, client.CodeVertexNotFound)
	}
	if _, err := ds.Tip(ctx, client.Layer("middle")); !client.HasCode(err, client.CodeBadRequest) {
		t.Fatalf("bad layer: %v, want %s", err, client.CodeBadRequest)
	}
}

// TestBicliquesCursorWalk is the pagination acceptance bar: walking
// /bicliques with a small page size must reconstruct the engine's full
// enumeration exactly once — no gaps, no duplicates, engine order.
func TestBicliquesCursorWalk(t *testing.T) {
	eng, _, c := newTestServer(t)
	ctx := context.Background()
	if err := eng.Register("d", gen.Uniform(18, 18, 110, 6)); err != nil {
		t.Fatal(err)
	}
	vw, err := eng.View("d")
	if err != nil {
		t.Fatal(err)
	}
	full, err := vw.Bicliques(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Bicliques) < 5 {
		t.Fatalf("graph too sparse for a walk test: %d bicliques", len(full.Bicliques))
	}

	ds := c.Dataset("d")
	// First page carries the totals and a continuation cursor.
	page, err := ds.BicliquesPage(ctx, client.BicliquesOptions{MinUpper: 2, MinLower: 2, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != len(full.Bicliques) || page.MinUpper != 2 || page.MinLower != 2 {
		t.Fatalf("first page header = %+v, want total %d", page, len(full.Bicliques))
	}
	if page.NextCursor == "" {
		t.Fatal("first page of a longer enumeration must carry a cursor")
	}

	walked, err := ds.BicliquesAll(ctx, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(walked) != len(full.Bicliques) {
		t.Fatalf("walk returned %d bicliques, engine has %d", len(walked), len(full.Bicliques))
	}
	for i, bc := range walked {
		if !reflect.DeepEqual([]int32(bc.Upper), full.Bicliques[i].Upper) ||
			!reflect.DeepEqual([]int32(bc.Lower), full.Bicliques[i].Lower) {
			t.Fatalf("walk diverges from engine enumeration at rank %d: %+v vs %+v",
				i, bc, full.Bicliques[i])
		}
	}

	// The cursor carries its thresholds: repeating it with different
	// explicit thresholds is rejected.
	if _, err := ds.BicliquesPage(ctx, client.BicliquesOptions{MinUpper: 3, MinLower: 3, Cursor: page.NextCursor}); !client.HasCode(err, client.CodeBadRequest) {
		t.Fatalf("threshold/cursor mismatch: %v, want %s", err, client.CodeBadRequest)
	}
}

// TestAnalyticsCachedMatchesUncached pins the serving-path contract
// for the analytics family: the cached server's bytes must equal the
// uncached handler's for every tip/theta/biclique query, including
// error bodies.
func TestAnalyticsCachedMatchesUncached(t *testing.T) {
	_, cached, uncached := cachePair(t, 17)
	paths := []string{
		"/v1/datasets/d/tip",
		"/v1/datasets/d/tip?layer=lower",
		"/v1/datasets/d/tip?layer=upper&v=3",
		"/v1/datasets/d/theta?vertex=0",
		"/v1/datasets/d/theta?layer=lower&vertex=7",
		"/v1/datasets/d/theta?vertex=4000",
		"/v1/datasets/d/bicliques?min_upper=2&min_lower=2&limit=5",
		"/v1/datasets/d/bicliques?min_upper=3&min_lower=3",
	}
	for _, p := range paths {
		cs, cb := get(t, cached, p)
		us, ub := get(t, uncached, p)
		if cs != us || !bytes.Equal(cb, ub) {
			t.Fatalf("%s: cached (%d, %s) differs from uncached (%d, %s)", p, cs, cb, us, ub)
		}
		// A second cached read must serve the identical bytes again.
		cs2, cb2 := get(t, cached, p)
		if cs2 != cs || !bytes.Equal(cb2, cb) {
			t.Fatalf("%s: cache hit differs from first read", p)
		}
	}
}

// TestAnalyticsSurviveRestart is the durability acceptance bar for the
// new endpoints: a dataset recovered through the WAL/snapshot path
// must serve identical tip and biclique answers to the pre-shutdown
// engine.
func TestAnalyticsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	const name = "d"

	durable := func() *engine.Engine {
		e := engine.New()
		if err := e.EnableDurability(engine.DurabilityOptions{Dir: dir, SnapshotEvery: 3}); err != nil {
			t.Fatal(err)
		}
		return e
	}
	serve := func(e *engine.Engine) *client.Client {
		ts := httptest.NewServer(New(e).Handler())
		t.Cleanup(ts.Close)
		return client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	}

	e1 := durable()
	if err := e1.Register(name, gen.Uniform(20, 20, 130, 8)); err != nil {
		t.Fatal(err)
	}
	if err := e1.Decompose(ctx, name, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	// Mutate past the snapshot interval so recovery replays a WAL tail.
	for i := 0; i < 5; i++ {
		if _, err := e1.Mutate(ctx, name, engine.MutateRequest{Insert: [][2]int{{21 + i, i}}, Wait: true}); err != nil {
			t.Fatal(err)
		}
	}
	c1 := serve(e1)
	ds1 := c1.Dataset(name)
	tipBefore, err := ds1.Tip(ctx, client.UpperLayer)
	if err != nil {
		t.Fatal(err)
	}
	bicBefore, err := ds1.BicliquesAll(ctx, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	e2 := durable()
	if names, err := e2.Recover(ctx); err != nil || len(names) != 1 {
		t.Fatalf("recover: %v %v", names, err)
	}
	if err := e2.Wait(ctx, name); err != nil {
		t.Fatal(err)
	}
	c2 := serve(e2)
	ds2 := c2.Dataset(name)
	tipAfter, err := ds2.Tip(ctx, client.UpperLayer)
	if err != nil {
		t.Fatalf("tip after restart: %v", err)
	}
	if tipAfter.Version != tipBefore.Version {
		t.Fatalf("recovered version %d, want %d", tipAfter.Version, tipBefore.Version)
	}
	if tipAfter.MaxTheta != tipBefore.MaxTheta ||
		tipAfter.TotalButterflies != tipBefore.TotalButterflies ||
		tipAfter.Vertices != tipBefore.Vertices {
		t.Fatalf("recovered tip %+v differs from pre-shutdown %+v", tipAfter, tipBefore)
	}
	bicAfter, err := ds2.BicliquesAll(ctx, 2, 2, 4)
	if err != nil {
		t.Fatalf("bicliques after restart: %v", err)
	}
	if !reflect.DeepEqual(bicAfter, bicBefore) {
		t.Fatalf("recovered enumeration differs: %d vs %d bicliques", len(bicAfter), len(bicBefore))
	}
	if err := e2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestTipVertexOnSummaryRoute covers /tip?v=: the summary plus one
// vertex's θ in a single response, consistent with /theta.
func TestTipVertexOnSummaryRoute(t *testing.T) {
	_, ts, c := newTestServer(t)
	ctx := context.Background()
	registerFigure1(t, c, "fig1")

	status, body := get(t, ts, "/v1/datasets/fig1/tip?layer=upper&v=3")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out struct {
		Vertex *int64 `json:"vertex"`
		Theta  *int64 `json:"theta"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Vertex == nil || out.Theta == nil || *out.Vertex != 3 || *out.Theta != 1 {
		t.Fatalf("tip?v=3 = %s", body)
	}

	// The wire answer agrees with the tip package run directly on the
	// same graph.
	if want := tip.Decompose(testgraphs.Figure1(), true); want.Theta[3] != *out.Theta {
		t.Fatalf("served θ(u3) = %d, tip package says %d", *out.Theta, want.Theta[3])
	}
	_ = ctx
}
