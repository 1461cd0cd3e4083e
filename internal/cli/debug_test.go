package cli

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/server"
)

// TestDebugStats covers the -debug-addr surface: pprof index, expvar
// and the serving-stats JSON.
func TestDebugStats(t *testing.T) {
	eng := engine.New()
	if err := eng.Register("d", gen.Uniform(30, 30, 200, 9)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Decompose(context.Background(), "d", engine.Options{}); err != nil {
		t.Fatal(err)
	}
	api := server.New(eng)
	apiTS := httptest.NewServer(api.Handler())
	defer apiTS.Close()
	// Two identical queries: one miss, one hit.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(apiTS.URL + "/v1/datasets/d/levels")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	ts := httptest.NewServer(debugMux(api, eng, time.Now().Add(-time.Second)))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Requests    uint64  `json:"requests"`
		QPS         float64 `json:"qps"`
		CacheHits   uint64  `json:"cache_hits"`
		CacheMisses uint64  `json:"cache_misses"`
		HitRate     float64 `json:"cache_hit_rate"`
		Datasets    map[string]struct {
			Version      int64 `json:"version"`
			CacheEntries int   `json:"cache_entries"`
		} `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Requests < 2 || out.CacheHits < 1 || out.CacheMisses < 1 {
		t.Fatalf("stats = %+v, want >=2 requests with one hit and one miss", out)
	}
	if out.HitRate <= 0 || out.HitRate >= 1 {
		t.Fatalf("hit rate %v, want in (0, 1)", out.HitRate)
	}
	ds, ok := out.Datasets["d"]
	if !ok || ds.CacheEntries == 0 {
		t.Fatalf("datasets = %+v, want d with warmed cache entries", out.Datasets)
	}

	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
	}
}
