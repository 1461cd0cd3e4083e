package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
)

// doRaw issues one request with full control over method, body and
// Content-Type, returning status, headers and body.
func doRaw(t *testing.T, method, url, contentType, body string) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
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
	return resp.StatusCode, resp.Header, data
}

// decodeEnvelope parses a v1 error envelope, failing the test when the
// body is not one.
func decodeEnvelope(t *testing.T, body []byte) errorPayload {
	t.Helper()
	var eb v1ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code == "" || eb.Error.Message == "" {
		t.Fatalf("body is not a v1 error envelope: %s (%v)", body, err)
	}
	return eb.Error
}

// TestErrorModelConformance is the table-driven contract test: every
// v1 failure path must produce the structured envelope with the
// documented stable code and HTTP status.
func TestErrorModelConformance(t *testing.T) {
	eng := engine.New()
	if err := eng.Register("ready", gen.Uniform(20, 20, 120, 5)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Decompose(context.Background(), "ready", engine.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Register("raw", gen.Uniform(5, 5, 12, 1)); err != nil {
		t.Fatal(err)
	}
	// Analytics failure modes: lazy tip off means tip/theta queries are
	// rejected on snapshots decomposed without Options.Tip, and a
	// biclique limit of 1 makes any real enumeration overflow.
	eng.SetLazyTip(false)
	eng.SetBicliqueLimit(1)
	ts := httptest.NewServer(New(eng).Handler())
	defer ts.Close()

	cases := []struct {
		name        string
		method      string
		path        string
		contentType string
		body        string
		status      int
		code        string
	}{
		{"unknown dataset", "GET", "/v1/datasets/ghost", "", "", 404, CodeDatasetNotFound},
		{"unknown dataset levels", "GET", "/v1/datasets/ghost/levels", "", "", 404, CodeDatasetNotFound},
		{"unknown dataset batch", "POST", "/v1/datasets/ghost/query", "application/json", `{"queries":[{"op":"phi","u":0,"v":0}]}`, 404, CodeDatasetNotFound},
		{"absent edge", "GET", "/v1/datasets/ready/phi?u=0&v=9999", "", "", 404, CodeEdgeNotFound},
		{"vertex outside level", "GET", "/v1/datasets/ready/community_of?layer=upper&vertex=0&k=999999", "", "", 404, CodeNotFound},
		{"missing query param", "GET", "/v1/datasets/ready/phi?u=0", "", "", 400, CodeBadRequest},
		{"non-integer param", "GET", "/v1/datasets/ready/phi?u=zero&v=0", "", "", 400, CodeBadRequest},
		{"bad layer", "GET", "/v1/datasets/ready/community_of?layer=middle&vertex=0&k=1", "", "", 400, CodeBadRequest},
		{"top and limit", "GET", "/v1/datasets/ready/communities?k=1&top=3&limit=3", "", "", 400, CodeBadRequest},
		{"cursor with top", "GET", "/v1/datasets/ready/communities?k=1&top=3&cursor=abc", "", "", 400, CodeBadRequest},
		{"malformed cursor", "GET", "/v1/datasets/ready/communities?k=1&cursor=%21%21", "", "", 400, CodeBadRequest},
		{"not decomposed", "GET", "/v1/datasets/raw/phi?u=0&v=0", "", "", 409, CodeNotDecomposed},
		{"duplicate dataset", "POST", "/v1/datasets", "application/json", `{"name":"ready","edges":[[0,0]]}`, 409, CodeDatasetExists},
		{"malformed body", "POST", "/v1/datasets", "application/json", `{"name":`, 400, CodeBadRequest},
		{"missing name", "POST", "/v1/datasets", "application/json", `{"edges":[[0,0]]}`, 400, CodeBadRequest},
		{"non-json content type", "POST", "/v1/datasets", "text/plain", `{"name":"x","edges":[[0,0]]}`, 415, CodeUnsupportedMedia},
		{"form content type mutate", "POST", "/v1/datasets/ready/edges", "application/x-www-form-urlencoded", `{"insert":[[0,0]]}`, 415, CodeUnsupportedMedia},
		{"unknown algorithm", "POST", "/v1/datasets/ready/decompose", "application/json", `{"algorithm":"quantum"}`, 400, CodeBadRequest},
		{"path mismatch", "POST", "/v1/datasets/ready/decompose", "application/json", `{"dataset":"other"}`, 400, CodeBadRequest},
		{"empty mutation", "POST", "/v1/datasets/ready/edges", "application/json", `{}`, 400, CodeBadRequest},
		{"empty batch", "POST", "/v1/datasets/ready/query", "application/json", `{"queries":[]}`, 400, CodeBadRequest},
		{"unknown batch op", "POST", "/v1/datasets/ready/query", "application/json", `{"queries":[{"op":"levels"}]}`, 400, CodeBadRequest},
		{"batch missing fields", "POST", "/v1/datasets/ready/query", "application/json", `{"queries":[{"op":"phi","u":1}]}`, 400, CodeBadRequest},
		{"wrong method", "DELETE", "/v1/healthz", "", "", 405, CodeMethodNotAllowed},
		{"unknown route", "GET", "/v1/nope", "", "", 404, CodeRouteNotFound},
		{"tip not computed", "GET", "/v1/datasets/ready/tip?layer=upper", "", "", 409, CodeTipNotComputed},
		{"theta not computed", "GET", "/v1/datasets/ready/theta?vertex=0", "", "", 409, CodeTipNotComputed},
		{"theta vertex out of range", "GET", "/v1/datasets/ready/theta?vertex=9999", "", "", 404, CodeVertexNotFound},
		{"bad tip layer", "GET", "/v1/datasets/ready/tip?layer=middle", "", "", 400, CodeBadRequest},
		{"enumeration too large", "GET", "/v1/datasets/ready/bicliques", "", "", 422, CodeEnumerationTooLarge},
		{"bad biclique threshold", "GET", "/v1/datasets/ready/bicliques?min_upper=0", "", "", 400, CodeBadRequest},
		{"bad biclique limit", "GET", "/v1/datasets/ready/bicliques?limit=-3", "", "", 400, CodeBadRequest},
		{"malformed biclique cursor", "GET", "/v1/datasets/ready/bicliques?cursor=%21%21", "", "", 400, CodeBadRequest},
		// The pre-v1 root routes are gone: they answer like any other
		// path outside the route table.
		{"retired root phi", "GET", "/phi?dataset=ready&u=0&v=0", "", "", 404, CodeRouteNotFound},
		{"retired root decompose", "POST", "/decompose", "application/json", `{"dataset":"ready"}`, 404, CodeRouteNotFound},
		{"retired root communities", "GET", "/communities?dataset=ready&k=1", "", "", 404, CodeRouteNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, hdr, body := doRaw(t, tc.method, ts.URL+tc.path, tc.contentType, tc.body)
			if status != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", status, tc.status, body)
			}
			p := decodeEnvelope(t, body)
			if p.Code != tc.code {
				t.Fatalf("code = %q, want %q (message %q)", p.Code, tc.code, p.Message)
			}
			if tc.status == 405 {
				if allow := hdr.Get("Allow"); !strings.Contains(allow, http.MethodGet) {
					t.Fatalf("405 without GET in Allow header (%q)", allow)
				}
				if p.Details["allow"] == nil {
					t.Fatalf("405 envelope without allow details: %+v", p)
				}
			}
			if tc.status == 415 && p.Details["content_type"] != tc.contentType {
				t.Fatalf("415 details = %+v, want content_type %q", p.Details, tc.contentType)
			}
		})
	}

	// The 503 path: after Shutdown, writes are rejected with the
	// envelope while reads keep working.
	if err := eng.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method, path, body string
	}{
		{"POST", "/v1/datasets/ready/edges", `{"insert":[[0,0]],"wait":true}`},
		{"POST", "/v1/datasets/ready/decompose", `{}`},
	} {
		status, hdr, body := doRaw(t, tc.method, ts.URL+tc.path, "application/json", tc.body)
		if status != http.StatusServiceUnavailable {
			t.Fatalf("%s %s after shutdown = %d (%s), want 503", tc.method, tc.path, status, body)
		}
		if p := decodeEnvelope(t, body); p.Code != CodeShuttingDown {
			t.Fatalf("shutdown code = %q, want %q", p.Code, CodeShuttingDown)
		}
		if ra := hdr.Get("Retry-After"); ra == "" {
			t.Fatalf("%s %s: 503 without Retry-After header", tc.method, tc.path)
		} else if _, err := strconv.Atoi(ra); err != nil {
			t.Fatalf("Retry-After %q is not a delay in seconds", ra)
		}
	}
	if status, _, _ := doRaw(t, "GET", ts.URL+"/v1/datasets/ready/levels", "", ""); status != http.StatusOK {
		t.Fatalf("reads must keep working after shutdown, got %d", status)
	}
}

// TestErrorClassificationConformance pins the classification and wire
// shape of the codes the table test above cannot reach
// deterministically over HTTP: CodeDecomposeBusy needs a decompose
// in flight at the exact moment of a second request, and CodeInternal
// needs an unclassified engine failure. Both still go through the real
// writeError path via a recorder, so the envelope bytes are the ones
// clients would see.
func TestErrorClassificationConformance(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		code   string
		status int
	}{
		{"decompose busy", fmt.Errorf("%w: %q", engine.ErrBusy, "ready"), CodeDecomposeBusy, http.StatusConflict},
		{"recovering", fmt.Errorf("%w: %q", engine.ErrRecovering, "ready"), CodeRecovering, http.StatusServiceUnavailable},
		{"unclassified is internal", errors.New("disk melted"), CodeInternal, http.StatusInternalServerError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code, status := classify(tc.err); code != tc.code || status != tc.status {
				t.Fatalf("classify = (%q, %d), want (%q, %d)", code, status, tc.code, tc.status)
			}
			rec := httptest.NewRecorder()
			writeError(rec, tc.err)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d", rec.Code, tc.status)
			}
			p := decodeEnvelope(t, rec.Body.Bytes())
			if p.Code != tc.code {
				t.Fatalf("code = %q, want %q", p.Code, tc.code)
			}
			if p.Message != tc.err.Error() {
				t.Fatalf("message = %q, want %q", p.Message, tc.err.Error())
			}
			// Retryable rejections carry the Retry-After hint; permanent
			// ones must not.
			retryable := tc.status == http.StatusServiceUnavailable || tc.code == CodeDecomposeBusy
			if got := rec.Header().Get("Retry-After") != ""; got != retryable {
				t.Fatalf("Retry-After presence = %v, want %v", got, retryable)
			}
		})
	}
}

// TestCommunitiesPagination covers the cursor walk at the wire level:
// pages partition the full listing, and the default is capped.
func TestCommunitiesPagination(t *testing.T) {
	eng := engine.New()
	if err := eng.Register("d", gen.Uniform(300, 300, 900, 17)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Decompose(context.Background(), "d", engine.Options{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng).Handler())
	defer ts.Close()

	vw, _ := eng.View("d")
	levels, _ := vw.Levels()
	k := levels[0]
	_, total, err := vw.CommunitiesPage(k, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if total < 3 {
		t.Skipf("only %d communities at k=%d", total, k)
	}

	type page struct {
		Total       int               `json:"total"`
		Communities []json.RawMessage `json:"communities"`
		NextCursor  string            `json:"next_cursor"`
	}
	// Walk with limit=2; the concatenation must match the full top=total
	// listing element for element.
	var walked []json.RawMessage
	cursor := ""
	for {
		u := fmt.Sprintf("/v1/datasets/d/communities?k=%d&limit=2", k)
		if cursor != "" {
			u += "&cursor=" + cursor
		}
		status, body := get(t, ts, u)
		if status != http.StatusOK {
			t.Fatalf("page: %d %s", status, body)
		}
		var p page
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatal(err)
		}
		if p.Total != total {
			t.Fatalf("page total %d, want %d", p.Total, total)
		}
		if len(p.Communities) > 2 {
			t.Fatalf("page holds %d communities, limit was 2", len(p.Communities))
		}
		walked = append(walked, p.Communities...)
		if p.NextCursor == "" {
			break
		}
		cursor = p.NextCursor
	}
	status, body := get(t, ts, fmt.Sprintf("/v1/datasets/d/communities?k=%d&top=%d", k, total))
	if status != http.StatusOK {
		t.Fatalf("full listing: %d", status)
	}
	var full page
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Communities) != total {
		t.Fatalf("top=%d listing returned %d communities", total, len(full.Communities))
	}
	if len(walked) != total {
		t.Fatalf("cursor walk returned %d of %d communities", len(walked), total)
	}
	for i := range walked {
		if !bytes.Equal(walked[i], full.Communities[i]) {
			t.Fatalf("walk diverges from full listing at %d:\n%s\n%s", i, walked[i], full.Communities[i])
		}
	}

	// A forged cursor with a near-overflow offset is a clean empty page
	// (clamped), not an overflow into unbounded work or an error.
	huge := base64.RawURLEncoding.EncodeToString(fmt.Appendf(nil, "k=%d&o=9223372036854775000", k))
	status, body = get(t, ts, fmt.Sprintf("/v1/datasets/d/communities?k=%d&limit=2&cursor=%s", k, huge))
	if status != http.StatusOK {
		t.Fatalf("huge-offset cursor: %d %s", status, body)
	}
	var hugePage page
	if err := json.Unmarshal(body, &hugePage); err != nil {
		t.Fatal(err)
	}
	if len(hugePage.Communities) != 0 || hugePage.NextCursor != "" || hugePage.Total != total {
		t.Fatalf("huge-offset cursor page = %+v, want empty page with total %d", hugePage, total)
	}

	// The v1 default (no top/limit) is capped at the documented limit.
	status, body = get(t, ts, fmt.Sprintf("/v1/datasets/d/communities?k=%d", k))
	if status != http.StatusOK {
		t.Fatalf("v1 default: %d", status)
	}
	var def page
	if err := json.Unmarshal(body, &def); err != nil {
		t.Fatal(err)
	}
	if total > defaultCommunitiesLimit {
		if len(def.Communities) != defaultCommunitiesLimit || def.NextCursor == "" {
			t.Fatalf("v1 default returned %d communities (cursor %q), want capped page", len(def.Communities), def.NextCursor)
		}
	} else if len(def.Communities) != total {
		t.Fatalf("v1 default returned %d of %d", len(def.Communities), total)
	}
}

// TestBatchQueryMatchesIndividual pins the batch endpoint against the
// individual endpoints: same values, one version, per-item errors.
func TestBatchQueryMatchesIndividual(t *testing.T) {
	eng := engine.New()
	if err := eng.Register("d", gen.Uniform(40, 40, 420, 7)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Decompose(context.Background(), "d", engine.Options{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng).Handler())
	defer ts.Close()

	vw, _ := eng.View("d")
	levels, _ := vw.Levels()
	k := levels[0]
	edges, _ := vw.KBitrussEdges(k)
	if len(edges) < 3 {
		t.Fatalf("need 3 edges, have %d", len(edges))
	}

	var queries []map[string]any
	for i := 0; i < 3; i++ {
		queries = append(queries,
			map[string]any{"op": "phi", "u": edges[i][0], "v": edges[i][1]},
			map[string]any{"op": "support", "u": edges[i][0], "v": edges[i][1]},
			map[string]any{"op": "community_of", "layer": "upper", "vertex": edges[i][0], "k": k},
		)
	}
	queries = append(queries, map[string]any{"op": "phi", "u": 0, "v": 99999}) // per-item failure
	reqBody, _ := json.Marshal(map[string]any{"queries": queries})
	status, _, body := doRaw(t, "POST", ts.URL+"/v1/datasets/d/query", "application/json", string(reqBody))
	if status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, body)
	}
	var out struct {
		Version int64 `json:"version"`
		Count   int   `json:"count"`
		Results []struct {
			Op        string           `json:"op"`
			Phi       *int64           `json:"phi"`
			Support   *int64           `json:"support"`
			Community *json.RawMessage `json:"community"`
			Error     *errorPayload    `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != len(queries) || len(out.Results) != len(queries) {
		t.Fatalf("count = %d, want %d", out.Count, len(queries))
	}
	for i := 0; i < 3; i++ {
		base := i * 3
		wantPhi, _ := vw.Phi(int(edges[i][0]), int(edges[i][1]))
		wantSup, _ := vw.Support(int(edges[i][0]), int(edges[i][1]))
		if r := out.Results[base]; r.Phi == nil || *r.Phi != wantPhi {
			t.Fatalf("result %d: phi %v, want %d", base, r.Phi, wantPhi)
		}
		if r := out.Results[base+1]; r.Support == nil || *r.Support != wantSup {
			t.Fatalf("result %d: support %v, want %d", base+1, r.Support, wantSup)
		}
		if r := out.Results[base+2]; r.Community == nil {
			t.Fatalf("result %d: missing community", base+2)
		}
	}
	last := out.Results[len(out.Results)-1]
	if last.Error == nil || last.Error.Code != CodeEdgeNotFound {
		t.Fatalf("absent edge item = %+v, want %s", last.Error, CodeEdgeNotFound)
	}
	if out.Version != vw.Version() {
		t.Fatalf("batch version %d, want %d", out.Version, vw.Version())
	}

	// A repeated identical batch is answered from the snapshot cache
	// byte-identically.
	srv := New(eng, WithoutQueryCache())
	uncached := httptest.NewServer(srv.Handler())
	defer uncached.Close()
	_, _, body2 := doRaw(t, "POST", ts.URL+"/v1/datasets/d/query", "application/json", string(reqBody))
	_, _, ubody := doRaw(t, "POST", uncached.URL+"/v1/datasets/d/query", "application/json", string(reqBody))
	if !bytes.Equal(body, body2) {
		t.Fatal("repeated batch diverged from first answer")
	}
	if !bytes.Equal(body, ubody) {
		t.Fatalf("cached batch diverges from uncached:\n%s\n%s", body, ubody)
	}
}

// TestBatchEchoKeyedDistinctly pins the cache-key contract: two
// batches that answer identically but echo differently (a stray field,
// an explicit vs omitted layer) must not share a cache entry — the
// response echoes exactly what its own request sent.
func TestBatchEchoKeyedDistinctly(t *testing.T) {
	eng := engine.New()
	if err := eng.Register("d", gen.Uniform(40, 40, 420, 7)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Decompose(context.Background(), "d", engine.Options{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng).Handler())
	defer ts.Close()

	vw, _ := eng.View("d")
	levels, _ := vw.Levels()
	edges, _ := vw.KBitrussEdges(levels[0])
	e := edges[0]

	post := func(body string) []byte {
		status, _, b := doRaw(t, "POST", ts.URL+"/v1/datasets/d/query", "application/json", body)
		if status != http.StatusOK {
			t.Fatalf("batch %s: %d %s", body, status, b)
		}
		return b
	}
	// Same lookup, three echo shapes; issue each twice so the second is
	// a guaranteed cache hit of its own entry.
	plain := fmt.Sprintf(`{"queries":[{"op":"phi","u":%d,"v":%d}]}`, e[0], e[1])
	stray := fmt.Sprintf(`{"queries":[{"op":"phi","u":%d,"v":%d,"k":7}]}`, e[0], e[1])
	layered := fmt.Sprintf(`{"queries":[{"op":"phi","u":%d,"v":%d,"layer":"upper"}]}`, e[0], e[1])
	bPlain, bStray, bLayered := post(plain), post(stray), post(layered)
	if bytes.Contains(bPlain, []byte(`"k":7`)) {
		t.Fatalf("plain request echoes another request's stray field: %s", bPlain)
	}
	if !bytes.Contains(bStray, []byte(`"k":7`)) {
		t.Fatalf("stray field not echoed: %s", bStray)
	}
	if !bytes.Contains(bLayered, []byte(`"layer":"upper"`)) {
		t.Fatalf("explicit layer not echoed: %s", bLayered)
	}
	if !bytes.Equal(post(plain), bPlain) || !bytes.Equal(post(stray), bStray) || !bytes.Equal(post(layered), bLayered) {
		t.Fatal("cached repeats diverge from first answers")
	}
}

// TestBatchAllocationAdvantage is the acceptance bar for the batch
// path: answering N=100 mixed lookups through one batch request must
// allocate at least 5x less than 100 individual cached GETs.
func TestBatchAllocationAdvantage(t *testing.T) {
	eng := engine.New()
	if err := eng.Register("d", gen.Uniform(40, 40, 420, 7)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Decompose(context.Background(), "d", engine.Options{}); err != nil {
		t.Fatal(err)
	}
	srv := New(eng)

	vw, _ := eng.View("d")
	levels, _ := vw.Levels()
	k := levels[0]
	edges, _ := vw.KBitrussEdges(k)

	const n = 100
	reqs := make([]*http.Request, 0, n)
	queries := make([]map[string]any, 0, n)
	for i := 0; i < n; i++ {
		e := edges[i%len(edges)]
		if i%2 == 0 {
			reqs = append(reqs, httptest.NewRequest("GET", fmt.Sprintf("/v1/datasets/d/phi?u=%d&v=%d", e[0], e[1]), nil))
			queries = append(queries, map[string]any{"op": "phi", "u": e[0], "v": e[1]})
		} else {
			reqs = append(reqs, httptest.NewRequest("GET", fmt.Sprintf("/v1/datasets/d/support?u=%d&v=%d", e[0], e[1]), nil))
			queries = append(queries, map[string]any{"op": "support", "u": e[0], "v": e[1]})
		}
	}
	batchBody, _ := json.Marshal(map[string]any{"queries": queries})

	w := &discardWriter{h: make(http.Header, 4)}
	serveAll := func() {
		for _, req := range reqs {
			clear(w.h)
			srv.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("GET %s: %d", req.URL, w.code)
			}
		}
	}
	serveBatch := func() {
		clear(w.h)
		req := httptest.NewRequest("POST", "/v1/datasets/d/query", bytes.NewReader(batchBody))
		req.Header.Set("Content-Type", "application/json")
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("batch: %d", w.code)
		}
	}
	serveAll() // warm the per-edge cache entries
	serveBatch()

	individual := testing.AllocsPerRun(20, serveAll)
	batch := testing.AllocsPerRun(20, serveBatch)
	t.Logf("allocations for %d lookups: individual GETs %.0f, one batch %.0f (%.1fx)",
		n, individual, batch, individual/batch)
	if batch*5 > individual {
		t.Fatalf("batch path allocates %.0f for %d lookups; individual GETs allocate %.0f (want >= 5x advantage)",
			batch, n, individual)
	}
}
