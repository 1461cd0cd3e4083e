package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/testgraphs"
)

// newTestServer spins up an engine, its HTTP server and a typed v1
// client bound to it — the integration tests drive the server through
// the client, so the public client package is exercised by every flow.
func newTestServer(t *testing.T) (*engine.Engine, *httptest.Server, *client.Client) {
	t.Helper()
	eng := engine.New()
	ts := httptest.NewServer(New(eng).Handler())
	t.Cleanup(ts.Close)
	return eng, ts, client.New(ts.URL, client.WithHTTPClient(ts.Client()))
}

// doJSON issues a raw request with a JSON body — for the wire-format
// tests that post bodies the typed client would never build.
func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

func registerFigure1(t *testing.T, c *client.Client, name string) {
	t.Helper()
	ds, err := c.CreateDataset(context.Background(), client.CreateDatasetRequest{
		Name:  name,
		Edges: testgraphs.Figure1Edges(),
	})
	if err != nil {
		t.Fatalf("create dataset: %v", err)
	}
	if ds.Status != "loaded" || ds.Edges != 11 {
		t.Fatalf("registered dataset = %+v", ds)
	}
}

func decomposeAndWait(t *testing.T, c *client.Client, name string) {
	t.Helper()
	ds, err := c.Dataset(name).Decompose(context.Background(), client.DecomposeRequest{Algorithm: "bu++", Wait: true})
	if err != nil || ds.Status != "ready" {
		t.Fatalf("decompose: %v (dataset %+v)", err, ds)
	}
}

func TestServerEndToEnd(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	registerFigure1(t, c, "fig1")
	decomposeAndWait(t, c, "fig1")
	h := c.Dataset("fig1")

	// Every ground-truth φ of the Figure 1 network over /phi.
	for pair, want := range testgraphs.Figure1Bitruss() {
		res, err := h.Phi(ctx, pair[0], pair[1])
		if err != nil {
			t.Fatalf("phi%v: %v", pair, err)
		}
		if res.Phi == nil || *res.Phi != want {
			t.Errorf("phi%v = %v, want %d", pair, res.Phi, want)
		}
	}
	// Absent edge -> 404.
	if _, err := h.Phi(ctx, 0, 4); !client.IsNotFound(err) {
		t.Fatalf("absent edge = %v, want not found", err)
	}

	// /support matches Figure 6's BE-Index supports.
	for pair, want := range testgraphs.Figure1Supports() {
		res, err := h.Support(ctx, pair[0], pair[1])
		if err != nil {
			t.Fatalf("support%v: %v", pair, err)
		}
		if res.Support == nil || *res.Support != want {
			t.Errorf("support%v = %v, want %d", pair, res.Support, want)
		}
	}

	lv, err := h.Levels(ctx)
	if err != nil {
		t.Fatalf("levels: %v", err)
	}
	if len(lv.Levels) != 3 || lv.Levels[2] != 2 {
		t.Fatalf("levels = %v", lv.Levels)
	}

	// /communities at level 2: H2 of Figure 4(c).
	comms, err := h.Communities(ctx, 2, client.CommunitiesOptions{})
	if err != nil {
		t.Fatalf("communities: %v", err)
	}
	if comms.Total != 1 || len(comms.Communities) != 1 || comms.Communities[0].Size != 6 {
		t.Fatalf("communities = %+v", comms)
	}

	// /community_of for u1 at level 2 returns the same community.
	cof, err := h.CommunityOf(ctx, client.UpperLayer, 1, 2)
	if err != nil {
		t.Fatalf("community_of: %v", err)
	}
	if cof.Community.Size != 6 || cof.Community.K != 2 {
		t.Fatalf("community_of = %+v", cof.Community)
	}
	// u3 is outside the 2-bitruss -> 404.
	if _, err := h.CommunityOf(ctx, client.UpperLayer, 3, 2); !client.IsNotFound(err) {
		t.Fatalf("community_of outside = %v, want not found", err)
	}

	// /kbitruss at level 2 lists the six H2 edges.
	kb, err := h.KBitruss(ctx, 2)
	if err != nil {
		t.Fatalf("kbitruss: %v", err)
	}
	if len(kb.Edges) != 6 {
		t.Fatalf("kbitruss edges = %+v", kb.Edges)
	}

	// DELETE then 404.
	if err := h.Delete(ctx); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := c.Dataset("fig1").Phi(ctx, 0, 0); !client.IsNotFound(err) {
		t.Fatalf("after delete = %v, want not found", err)
	}
}

// TestServerErrorPaths pins the status codes of dataset-lifecycle
// failures: registration, query and decomposition requests a careless
// or hostile client sends.
func TestServerErrorPaths(t *testing.T) {
	_, ts, c := newTestServer(t)
	registerFigure1(t, c, "fig1")

	// Duplicate registration -> 409.
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets", addDatasetRequest{
		Name: "fig1", Edges: [][2]int{{0, 0}},
	}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate register = %d, want 409", code)
	}
	// Query before decomposition -> 409.
	if code := doJSON(t, "GET", ts.URL+"/v1/datasets/fig1/phi?u=0&v=0", nil, nil); code != http.StatusConflict {
		t.Fatalf("phi before decompose = %d, want 409", code)
	}
	// Bad requests -> 400.
	if code := doJSON(t, "GET", ts.URL+"/v1/datasets/fig1/phi?u=zero&v=0", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad u = %d, want 400", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/datasets/fig1/communities", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("missing k = %d, want 400", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets/fig1/decompose", decomposeRequest{
		Algorithm: "quantum",
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad algorithm = %d, want 400", code)
	}
	// Unknown dataset -> 404.
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets/nope/decompose", decomposeRequest{}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown dataset = %d, want 404", code)
	}
	// Hostile vertex ids (negative, or beyond the int32 id space) are a
	// clean 400, not a panic or a giant allocation.
	for _, edges := range [][][2]int{
		{{-1, 0}},
		{{3000000000, 0}},
		{{0, 2000000000}},
	} {
		var body v1ErrorBody
		if code := doJSON(t, "POST", ts.URL+"/v1/datasets", addDatasetRequest{
			Name: "hostile", Edges: edges,
		}, &body); code != http.StatusBadRequest || body.Error.Code != CodeBadRequest || body.Error.Message == "" {
			t.Fatalf("edges %v = %d (%+v), want 400", edges, code, body.Error)
		}
	}
	// Unreadable file path -> 400.
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets", addDatasetRequest{
		Name: "ghost", Path: "/definitely/missing.txt",
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("missing path accepted")
	}
}

// TestServerConcurrentQueriesDuringBackgroundDecompose is the serving
// acceptance scenario: dataset A answers concurrent φ and community
// queries while dataset B decomposes in the background, and B becomes
// queryable once the listing reports it ready — all through the typed
// client.
func TestServerConcurrentQueriesDuringBackgroundDecompose(t *testing.T) {
	eng, _, c := newTestServer(t)
	ctx := context.Background()

	registerFigure1(t, c, "served")
	decomposeAndWait(t, c, "served")

	// Register the background dataset directly on the engine (a
	// generated graph, not a file).
	if err := eng.Register("bg", gen.Zipf(600, 600, 20000, 1.3, 1.3, 5)); err != nil {
		t.Fatal(err)
	}
	bg := c.Dataset("bg")
	ds, err := bg.Decompose(ctx, client.DecomposeRequest{Algorithm: "bu++p", Workers: 2})
	if err != nil {
		t.Fatalf("background decompose: %v", err)
	}
	if ds.Status != "decomposing" && ds.Status != "ready" {
		t.Fatalf("background status = %q", ds.Status)
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Handles are cheap; one per goroutine keeps version pinning
			// goroutine-local.
			h := c.Dataset("served")
			for i := 0; i < 50; i++ {
				phi, err := h.Phi(ctx, 0, 0)
				if err != nil || phi.Phi == nil || *phi.Phi != 2 {
					t.Errorf("phi during background decompose: %v (%+v)", err, phi)
					return
				}
				comms, err := h.Communities(ctx, 1, client.CommunitiesOptions{})
				if err != nil || comms.Total != 1 {
					t.Errorf("communities during background decompose: %v (total %d)", err, comms.Total)
					return
				}
			}
		}()
	}
	wg.Wait()

	// The background run finishes and becomes queryable.
	waitCtx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if _, err := bg.WaitReady(waitCtx); err != nil {
		t.Fatalf("background decomposition: %v", err)
	}
	lv, err := bg.Levels(ctx)
	if err != nil || len(lv.Levels) == 0 {
		t.Fatalf("bg levels after ready: %v (%v)", lv.Levels, err)
	}
}
