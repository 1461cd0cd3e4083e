package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
)

// The allocation regression tests pin the serving path's allocation
// discipline at three layers, so a refactor that quietly adds
// per-request garbage fails loudly instead of showing up months later
// in a profile:
//
//   - the cache-hit serve core (key lookup + pooled write) is
//     exactly zero allocations;
//   - a cached handler call stays within a tiny fixed budget (the
//     fill-closure materialization is the only survivor);
//   - the full ServeHTTP path and the 100-query batch stay under
//     measured ceilings (mux matching and body handling pay a few).
//
// Budgets are ceilings, not targets: lowering them is progress,
// raising them needs a written justification in the commit.

const (
	allocBudgetHandlerCached  = 2  // fill closure + header map insert
	allocBudgetServeHTTPGet   = 9  // + mux match, PathValue, query parse
	allocBudgetBatch100Cached = 35 // one POST answering 100 cached lookups
)

// allocEngine builds a small decomposed dataset shared by the tests in
// this file.
func allocEngine(t *testing.T) *engine.Engine {
	t.Helper()
	eng := engine.New()
	if err := eng.Register("d", gen.Uniform(40, 40, 420, 7)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Decompose(context.Background(), "d", engine.Options{}); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestCachedServeCoreZeroAllocs pins the heart of the fast path: on a
// warm cache, looking up the encoded response and writing it allocates
// nothing at all.
func TestCachedServeCoreZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budgets are measured without it")
	}
	eng := allocEngine(t)
	vw, err := eng.View("d")
	if err != nil {
		t.Fatal(err)
	}
	w := &discardWriter{h: make(http.Header, 4)}
	key := []byte("levels")
	fill := func() ([]byte, error) { return encodeToBytes(fillLevels("d", vw)) }
	if _, _, err := vw.Cached(key, fill); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		data, _, err := vw.Cached(key, fill)
		if err != nil {
			t.Fatal(err)
		}
		setJSONContentType(w)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	})
	if n != 0 {
		t.Fatalf("cache-hit serve core allocates %.1f per request, want exactly 0", n)
	}
}

// TestCachedHandlerAllocBudget pins the handler layer: a cached GET
// through the real handler (dispatch already done) stays within the
// small fixed budget.
func TestCachedHandlerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budgets are measured without it")
	}
	eng := allocEngine(t)
	srv := New(eng)
	w := &discardWriter{h: make(http.Header, 4)}
	rc := reqCtx{name: "d"}
	req := httptest.NewRequest(http.MethodGet, "/v1/datasets/d/levels", nil)
	srv.handleLevels(w, req, rc)
	if w.code != http.StatusOK {
		t.Fatalf("warm request failed: %d", w.code)
	}
	n := testing.AllocsPerRun(100, func() {
		srv.handleLevels(w, req, rc)
	})
	if n > allocBudgetHandlerCached {
		t.Fatalf("cached handleLevels allocates %.1f per request, budget %d", n, allocBudgetHandlerCached)
	}
}

// TestServeHTTPAllocBudget pins the whole-stack cached GET: routing,
// dispatch, cache hit, write.
func TestServeHTTPAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budgets are measured without it")
	}
	eng := allocEngine(t)
	srv := New(eng)
	vw, _ := eng.View("d")
	levels, _ := vw.Levels()
	edges, _ := vw.KBitrussEdges(levels[0])
	e := edges[0]

	for _, path := range []string{
		"/v1/datasets/d/levels",
		fmt.Sprintf("/v1/datasets/d/phi?u=%d&v=%d", e[0], e[1]),
	} {
		t.Run(path, func(t *testing.T) {
			w := &discardWriter{h: make(http.Header, 4)}
			req := httptest.NewRequest(http.MethodGet, path, nil)
			srv.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("warm request failed: %d", w.code)
			}
			n := testing.AllocsPerRun(100, func() {
				srv.ServeHTTP(w, req)
			})
			if n > allocBudgetServeHTTPGet {
				t.Fatalf("cached GET %s allocates %.1f per request, budget %d", path, n, allocBudgetServeHTTPGet)
			}
		})
	}
}

// TestBatchAllocBudget pins the bulk path: one batch POST answering
// 100 cached lookups stays under the ceiling, so per-item cost is
// fractional. The request object and body reader are reused so the
// measurement is the serving path, not test scaffolding.
func TestBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budgets are measured without it")
	}
	eng := allocEngine(t)
	srv := New(eng)
	vw, _ := eng.View("d")
	levels, _ := vw.Levels()
	edges, _ := vw.KBitrussEdges(levels[0])

	body := []byte(`{"queries":[`)
	for i := 0; i < 100; i++ {
		e := edges[i%len(edges)]
		if i > 0 {
			body = append(body, ',')
		}
		if i%2 == 0 {
			body = fmt.Appendf(body, `{"op":"phi","u":%d,"v":%d}`, e[0], e[1])
		} else {
			body = fmt.Appendf(body, `{"op":"support","u":%d,"v":%d}`, e[0], e[1])
		}
	}
	body = append(body, []byte(`]}`)...)

	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/datasets/d/query", rd)
	req.Header.Set("Content-Type", "application/json")
	w := &discardWriter{h: make(http.Header, 4)}
	serve := func() {
		if _, err := rd.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		req.Body = io.NopCloser(rd)
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("batch request failed: %d", w.code)
		}
	}
	serve() // warm the per-edge cache entries
	n := testing.AllocsPerRun(50, serve)
	if n > allocBudgetBatch100Cached {
		t.Fatalf("batch of 100 cached lookups allocates %.1f per request, budget %d", n, allocBudgetBatch100Cached)
	}
}
