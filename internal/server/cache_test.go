package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
)

// cachePair builds a cached and an uncached server over one shared
// engine holding a decomposed dataset, so both answer from the same
// snapshots and only the serving path differs.
func cachePair(t *testing.T, seed int64) (*engine.Engine, *httptest.Server, *httptest.Server) {
	t.Helper()
	eng := engine.New()
	if err := eng.Register("d", gen.Uniform(40, 40, 420, seed)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Decompose(context.Background(), "d", engine.Options{}); err != nil {
		t.Fatal(err)
	}
	cached := httptest.NewServer(New(eng).Handler())
	t.Cleanup(cached.Close)
	uncached := httptest.NewServer(New(eng, WithoutQueryCache()).Handler())
	t.Cleanup(uncached.Close)
	return eng, cached, uncached
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// queryPaths builds the endpoint sweep for the current graph state:
// hits and deliberate misses across every cached endpoint.
func queryPaths(levels []int64, edges [][2]int64, rng *rand.Rand) []string {
	paths := []string{"/v1/datasets/d/levels"}
	ks := []int64{0}
	if n := len(levels); n > 0 {
		ks = append(ks, levels[n/2], levels[n-1], levels[n-1]+1)
	}
	for _, k := range ks {
		paths = append(paths,
			fmt.Sprintf("/v1/datasets/d/communities?k=%d&top=10", k),
			fmt.Sprintf("/v1/datasets/d/communities?k=%d", k),
			fmt.Sprintf("/v1/datasets/d/kbitruss?k=%d", k),
		)
	}
	for i := 0; i < 3 && len(edges) > 0; i++ {
		e := edges[rng.Intn(len(edges))]
		paths = append(paths,
			fmt.Sprintf("/v1/datasets/d/phi?u=%d&v=%d", e[0], e[1]),
			fmt.Sprintf("/v1/datasets/d/support?u=%d&v=%d", e[0], e[1]),
			fmt.Sprintf("/v1/datasets/d/community_of?layer=upper&vertex=%d&k=%d", e[0], ks[len(ks)-1]),
			fmt.Sprintf("/v1/datasets/d/community_of?layer=lower&vertex=%d&k=%d", e[1], ks[0]),
		)
	}
	// Absent edge and vertex: the 404 paths must agree byte for byte too.
	paths = append(paths,
		"/v1/datasets/d/phi?u=39&v=1000",
		"/v1/datasets/d/community_of?layer=upper&vertex=39&k=999999",
	)
	return paths
}

// currentEdges reads the full edge list (k=0 bitruss) off the server.
func currentEdges(t *testing.T, ts *httptest.Server) [][2]int64 {
	t.Helper()
	status, body := get(t, ts, "/v1/datasets/d/kbitruss?k=0")
	if status != http.StatusOK {
		t.Fatalf("kbitruss bootstrap: status %d: %s", status, body)
	}
	var out struct {
		Edges []struct{ U, V int64 } `json:"edges"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	edges := make([][2]int64, len(out.Edges))
	for i, e := range out.Edges {
		edges[i] = [2]int64{e.U, e.V}
	}
	return edges
}

func currentLevels(t *testing.T, ts *httptest.Server) []int64 {
	t.Helper()
	status, body := get(t, ts, "/v1/datasets/d/levels")
	if status != http.StatusOK {
		t.Fatalf("levels bootstrap: status %d: %s", status, body)
	}
	var out struct {
		Levels []int64 `json:"levels"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.Levels
}

// TestCacheCorrectnessUnderMutation is the serving-path correctness
// bar: across > 50 randomized mutation batches, every cached response
// must be byte-identical to the uncached handler's answer, stamped
// with the post-batch version — a version swap must evict the old
// snapshot's entries so no stale answer is ever served. Concurrent
// readers hammer the cached server the whole time (singleflight joins,
// swap races; run under -race).
func TestCacheCorrectnessUnderMutation(t *testing.T) {
	_, cached, uncached := cachePair(t, 11)
	rng := rand.New(rand.NewSource(23))

	// Background readers: per-goroutine monotone versions, no 5xx.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			last := int64(-1)
			paths := []string{
				"/v1/datasets/d/levels",
				"/v1/datasets/d/communities?k=2&top=10",
				"/v1/datasets/d/kbitruss?k=1",
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := cached.Client().Get(cached.URL + paths[rng.Intn(len(paths))])
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 500 {
					t.Errorf("reader %d: status %d: %s", g, resp.StatusCode, body)
					return
				}
				var vr struct {
					Version int64 `json:"version"`
				}
				if err := json.Unmarshal(body, &vr); err != nil {
					t.Errorf("reader %d: %v in %q", g, err, body)
					return
				}
				if vr.Version < last {
					t.Errorf("reader %d: version went backwards: %d after %d", g, vr.Version, last)
					return
				}
				last = vr.Version
			}
		}(g)
	}

	const batches = 55
	for i := 0; i < batches; i++ {
		edges := currentEdges(t, uncached)
		// Randomized batch: up to 3 deletions of live edges, up to 3
		// insertions of random pairs (some may already exist).
		reqBody := struct {
			Insert [][2]int `json:"insert,omitempty"`
			Delete [][2]int `json:"delete,omitempty"`
			Wait   bool     `json:"wait"`
		}{Wait: true}
		for n := rng.Intn(3) + 1; n > 0 && len(edges) > 0; n-- {
			e := edges[rng.Intn(len(edges))]
			reqBody.Delete = append(reqBody.Delete, [2]int{int(e[0]), int(e[1])})
		}
		for n := rng.Intn(3); n > 0; n-- {
			reqBody.Insert = append(reqBody.Insert, [2]int{rng.Intn(40), rng.Intn(40)})
		}
		buf, _ := json.Marshal(reqBody)
		resp, err := cached.Client().Post(cached.URL+"/v1/datasets/d/edges", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		var mres struct {
			Version int64 `json:"version"`
			Applied bool  `json:"applied"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&mres); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: mutate status %d", i, resp.StatusCode)
		}

		levels := currentLevels(t, uncached)
		curEdges := currentEdges(t, uncached)
		for _, path := range queryPaths(levels, curEdges, rng) {
			cs, cb := get(t, cached, path)
			// Query twice so at least one request is a guaranteed cache
			// hit; both must equal the uncached body.
			cs2, cb2 := get(t, cached, path)
			us, ub := get(t, uncached, path)
			if cs != us || cs2 != us {
				t.Fatalf("batch %d %s: cached status %d/%d, uncached %d", i, path, cs, cs2, us)
			}
			if !bytes.Equal(cb, ub) || !bytes.Equal(cb2, ub) {
				t.Fatalf("batch %d %s: cached body diverges\ncached:   %s\nuncached: %s", i, path, cb, ub)
			}
			if us == http.StatusOK {
				var vr struct {
					Version int64 `json:"version"`
				}
				if err := json.Unmarshal(cb, &vr); err != nil {
					t.Fatalf("batch %d %s: %v", i, path, err)
				}
				if vr.Version != mres.Version {
					t.Fatalf("batch %d %s: served version %d, want %d (stale cache entry survived the swap)",
						i, path, vr.Version, mres.Version)
				}
			}
		}
	}
	close(stop)
	readers.Wait()
}

// TestCachedHitIsServedFromCache pins the counter semantics: the
// second identical request must be a hit and identical bytes.
func TestCachedHitIsServedFromCache(t *testing.T) {
	eng := engine.New()
	if err := eng.Register("d", gen.Uniform(25, 25, 160, 3)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Decompose(context.Background(), "d", engine.Options{}); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, WithPrewarm(0, 0)) // no pre-warm: first request must miss
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func() []byte {
		resp, err := ts.Client().Get(ts.URL + "/v1/datasets/d/communities?k=1&top=5")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return b
	}
	b1 := get()
	st := srv.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 0 {
		t.Fatalf("after first request: %+v, want exactly one miss", st)
	}
	b2 := get()
	st = srv.Stats()
	if st.CacheHits != 1 {
		t.Fatalf("after second request: %+v, want one hit", st)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("hit bytes differ from miss bytes:\n%s\n%s", b1, b2)
	}
}

// TestPrewarmOnPublish asserts decompositions and mutations leave the
// snapshot cache warm: /levels and top communities are hits from the
// very first request.
func TestPrewarmOnPublish(t *testing.T) {
	eng := engine.New()
	if err := eng.Register("d", gen.Uniform(25, 25, 160, 5)); err != nil {
		t.Fatal(err)
	}
	srv := New(eng) // default pre-warm
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := eng.Decompose(context.Background(), "d", engine.Options{}); err != nil {
		t.Fatal(err)
	}

	status, body := get(t, ts, "/v1/datasets/d/levels")
	if status != http.StatusOK {
		t.Fatalf("levels: %d: %s", status, body)
	}
	st := srv.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 0 {
		t.Fatalf("first /levels request: %+v, want a pre-warmed hit", st)
	}
	var lv struct {
		Levels []int64 `json:"levels"`
	}
	if err := json.Unmarshal(body, &lv); err != nil || len(lv.Levels) == 0 {
		t.Fatalf("levels body %s (%v)", body, err)
	}
	status, _ = get(t, ts, fmt.Sprintf("/v1/datasets/d/communities?k=%d&top=10", lv.Levels[0]))
	if status != http.StatusOK {
		t.Fatalf("communities: %d", status)
	}
	st = srv.Stats()
	if st.CacheHits != 2 || st.CacheMisses != 0 {
		t.Fatalf("first /communities request: %+v, want a pre-warmed hit", st)
	}
	// The default shape (no top or limit: the first
	// defaultCommunitiesLimit-long page) is warmed too.
	status, _ = get(t, ts, fmt.Sprintf("/v1/datasets/d/communities?k=%d", lv.Levels[0]))
	if status != http.StatusOK {
		t.Fatalf("communities (no top): %d", status)
	}
	st = srv.Stats()
	if st.CacheHits != 3 || st.CacheMisses != 0 {
		t.Fatalf("first default-shaped /communities request: %+v, want a pre-warmed hit", st)
	}
}

// TestCommunityOfNotFoundBody pins the 404 wire format: the envelope's
// message must stay exactly the historical string (clients match it).
func TestCommunityOfNotFoundBody(t *testing.T) {
	eng := engine.New()
	if err := eng.Register("d", gen.Uniform(25, 25, 160, 5)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Decompose(context.Background(), "d", engine.Options{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng).Handler())
	defer ts.Close()
	status, body := get(t, ts, "/v1/datasets/d/community_of?layer=upper&vertex=3&k=999999")
	if status != http.StatusNotFound {
		t.Fatalf("status %d, want 404", status)
	}
	p := decodeEnvelope(t, body)
	if p.Code != CodeNotFound {
		t.Fatalf("error code %q, want %q", p.Code, CodeNotFound)
	}
	if want := "vertex 3 has no community at level 999999"; p.Message != want {
		t.Fatalf("error message %q, want %q", p.Message, want)
	}
}
