package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
)

// The serving benchmarks run against the 60k-edge reference graph of
// the PR 3/4 benchmark suite, decomposed once and shared.
var serveBench struct {
	once sync.Once
	eng  *engine.Engine
	err  error
}

func serveBenchEngine(b *testing.B) *engine.Engine {
	serveBench.once.Do(func() {
		eng := engine.New()
		if err := eng.Register("bench", gen.Uniform(5000, 5000, 61500, 42)); err != nil {
			serveBench.err = err
			return
		}
		if err := eng.Decompose(context.Background(), "bench", engine.Options{}); err != nil {
			serveBench.err = err
			return
		}
		serveBench.eng = eng
	})
	if serveBench.err != nil {
		b.Fatal(serveBench.err)
	}
	return serveBench.eng
}

// benchPaths builds the hot-endpoint requests measured, resolving a
// real edge for the point lookup.
func benchPaths(b *testing.B, eng *engine.Engine) map[string]string {
	vw, err := eng.View("bench")
	if err != nil {
		b.Fatal(err)
	}
	levels, err := vw.Levels()
	if err != nil {
		b.Fatal(err)
	}
	k := levels[len(levels)/2]
	edges, err := vw.KBitrussEdges(k)
	if err != nil || len(edges) == 0 {
		b.Fatalf("no edges at k=%d (%v)", k, err)
	}
	e := edges[0]
	return map[string]string{
		"levels":      "/v1/datasets/bench/levels",
		"communities": fmt.Sprintf("/v1/datasets/bench/communities?k=%d&top=10", k),
		"phi":         fmt.Sprintf("/v1/datasets/bench/phi?u=%d&v=%d", e[0], e[1]),
		"kbitruss":    fmt.Sprintf("/v1/datasets/bench/kbitruss?k=%d", k),
	}
}

// discardWriter is a reusable ResponseWriter so the benchmark measures
// the serving path, not the recorder.
type discardWriter struct {
	h    http.Header
	n    int
	code int
}

func (d *discardWriter) Header() http.Header  { return d.h }
func (d *discardWriter) WriteHeader(code int) { d.code = code }
func (d *discardWriter) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// benchServe measures one path against one server configuration at the
// handler level (no sockets): the cached variant's steady state is a
// key build, a cache lookup and one Write.
func benchServe(b *testing.B, srv *Server, path string) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := &discardWriter{h: make(http.Header, 4)}
	// Warm: the first request fills the cache (and verifies the path).
	srv.ServeHTTP(w, req)
	if w.code != http.StatusOK {
		b.Fatalf("GET %s: status %d", path, w.code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(w.h)
		srv.ServeHTTP(w, req)
	}
	b.SetBytes(int64(w.n / (b.N + 1)))
}

// BenchmarkServeCached is the post-PR fast path: snapshot cache hits
// through the pooled write path.
func BenchmarkServeCached(b *testing.B) {
	eng := serveBenchEngine(b)
	srv := New(eng)
	for name, path := range benchPaths(b, eng) {
		b.Run(name, func(b *testing.B) { benchServe(b, srv, path) })
	}
}

// BenchmarkServeUncached recomputes and re-encodes per request — the
// pre-PR serving behaviour (modulo pooled buffers).
func BenchmarkServeUncached(b *testing.B) {
	eng := serveBenchEngine(b)
	srv := New(eng, WithoutQueryCache())
	for name, path := range benchPaths(b, eng) {
		b.Run(name, func(b *testing.B) { benchServe(b, srv, path) })
	}
}

// batchBenchBodies builds a 100-lookup batch body plus the equivalent
// 100 individual GET requests against real edges.
func batchBenchRequests(b *testing.B, eng *engine.Engine) ([]byte, []*http.Request) {
	vw, err := eng.View("bench")
	if err != nil {
		b.Fatal(err)
	}
	levels, err := vw.Levels()
	if err != nil {
		b.Fatal(err)
	}
	k := levels[len(levels)/2]
	edges, err := vw.KBitrussEdges(k)
	if err != nil || len(edges) == 0 {
		b.Fatalf("no edges at k=%d (%v)", k, err)
	}
	const n = 100
	body := []byte(`{"queries":[`)
	reqs := make([]*http.Request, 0, n)
	for i := 0; i < n; i++ {
		e := edges[i%len(edges)]
		if i > 0 {
			body = append(body, ',')
		}
		if i%2 == 0 {
			body = fmt.Appendf(body, `{"op":"phi","u":%d,"v":%d}`, e[0], e[1])
			reqs = append(reqs, httptest.NewRequest(http.MethodGet,
				fmt.Sprintf("/v1/datasets/bench/phi?u=%d&v=%d", e[0], e[1]), nil))
		} else {
			body = fmt.Appendf(body, `{"op":"support","u":%d,"v":%d}`, e[0], e[1])
			reqs = append(reqs, httptest.NewRequest(http.MethodGet,
				fmt.Sprintf("/v1/datasets/bench/support?u=%d&v=%d", e[0], e[1]), nil))
		}
	}
	body = append(body, []byte(`]}`)...)
	return body, reqs
}

// BenchmarkBatchLookups100 answers 100 mixed φ/support lookups through
// one cached batch request — the v1 bulk path. Compare per-op cost and
// allocs/op against BenchmarkIndividualLookups100.
func BenchmarkBatchLookups100(b *testing.B) {
	eng := serveBenchEngine(b)
	srv := New(eng)
	body, _ := batchBenchRequests(b, eng)
	w := &discardWriter{h: make(http.Header, 4)}
	issue := func() {
		clear(w.h)
		req := httptest.NewRequest(http.MethodPost, "/v1/datasets/bench/query", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("batch: %d", w.code)
		}
	}
	issue() // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		issue()
	}
}

// BenchmarkIndividualLookups100 answers the same 100 lookups as 100
// cached GETs — the pre-batch behaviour, one round-trip per edge.
func BenchmarkIndividualLookups100(b *testing.B) {
	eng := serveBenchEngine(b)
	srv := New(eng)
	_, reqs := batchBenchRequests(b, eng)
	w := &discardWriter{h: make(http.Header, 4)}
	issue := func() {
		for _, req := range reqs {
			clear(w.h)
			srv.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				b.Fatalf("GET %s: %d", req.URL, w.code)
			}
		}
	}
	issue() // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		issue()
	}
}

// BenchmarkServeParallelCached drives the cached path from parallel
// goroutines (singleflight joins and concurrent map reads included).
func BenchmarkServeParallelCached(b *testing.B) {
	eng := serveBenchEngine(b)
	srv := New(eng)
	path := benchPaths(b, eng)["communities"]
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := &discardWriter{h: make(http.Header, 4)}
	srv.ServeHTTP(w, req)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := &discardWriter{h: make(http.Header, 4)}
		for pb.Next() {
			clear(w.h)
			srv.ServeHTTP(w, req)
		}
	})
}
