// Package server exposes the resident query engine over HTTP/JSON —
// the `bitserved` front end. It is a thin, stateless layer over
// internal/engine: datasets are registered, decomposed asynchronously,
// and queried concurrently while other decompositions run in the
// background.
//
// The public contract is the versioned, resource-oriented v1 surface,
// where every query lives under the dataset it addresses:
//
//	GET    /v1/healthz                                liveness probe
//	GET    /v1/datasets                               list datasets and their status
//	POST   /v1/datasets                               register {name, path|edges, oneBased}
//	GET    /v1/datasets/{name}                        one dataset's status
//	DELETE /v1/datasets/{name}                        unregister (cancels in-flight work)
//	POST   /v1/datasets/{name}/edges                  mutate {insert, delete, wait}
//	DELETE /v1/datasets/{name}/edges                  delete {edges, wait}: deletion-only sugar
//	GET    /v1/datasets/{name}/version                served snapshot version + pending mutations
//	POST   /v1/datasets/{name}/decompose              {algorithm, tau, workers, ranges, wait}
//	GET    /v1/datasets/{name}/jobs                   retained decomposition jobs, oldest first
//	GET    /v1/datasets/{name}/jobs/{id}              live progress of one decomposition job
//	GET    /v1/datasets/{name}/phi?u=U&v=V            bitruss number of one edge
//	GET    /v1/datasets/{name}/support?u=U&v=V        butterfly support (works pre-decomposition)
//	GET    /v1/datasets/{name}/levels                 populated bitruss levels
//	GET    /v1/datasets/{name}/communities?k=K[&top=N|&limit=N][&cursor=C]
//	GET    /v1/datasets/{name}/community_of?layer=upper|lower&vertex=V&k=K
//	GET    /v1/datasets/{name}/kbitruss?k=K           edges of the k-bitruss
//	GET    /v1/datasets/{name}/tip?layer=upper|lower[&v=V]
//	                                                  tip-decomposition summary of one layer
//	                                                  (optionally one vertex's tip number)
//	GET    /v1/datasets/{name}/theta?layer=upper|lower&vertex=V
//	                                                  tip number θ(v) of one vertex
//	GET    /v1/datasets/{name}/bicliques?min_upper=A&min_lower=B[&limit=N][&cursor=C]
//	                                                  maximal bicliques above size thresholds,
//	                                                  cursor-paginated
//	POST   /v1/datasets/{name}/query                  batch of φ/support/community-of lookups,
//	                                                  answered from one snapshot
//
// Failures are machine-readable envelopes {"error": {code, message,
// details}} with stable code strings (see errors.go); non-JSON bodies
// on POST endpoints are rejected with 415, wrong-method hits answer 405
// with an Allow header derived from the route table, and any path
// outside the table (the pre-v1 root routes included) answers 404
// route_not_found.
//
// Every query response carries the snapshot version it was answered
// from; all fields of one response are consistent with that single
// version even while mutations are applied concurrently.
package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"mime"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bigraph"
	"repro/internal/core"
	"repro/internal/engine"
)

// maxBodyBytes caps POST bodies (inline edge lists included): one
// hostile request must not be able to exhaust server memory.
const maxBodyBytes = 64 << 20

// defaultCommunitiesLimit caps an unqualified /communities listing;
// clients page with limit/cursor or ask for a larger window via top.
const defaultCommunitiesLimit = 100

// Server wraps an engine with an http.Handler.
//
// The read path is allocation-disciplined: hot GET endpoints answer
// from the engine's per-snapshot response cache (final marshalled
// bytes, singleflight-deduplicated; see engine.View.Cached) so the
// steady-state fast path is a cache lookup plus one Write. Misses and
// the remaining endpoints encode through pooled buffer+encoder pairs
// instead of allocating per request. On snapshot publication the cache
// is pre-warmed with /levels and the top communities of each level.
type Server struct {
	eng *engine.Engine
	mux *http.ServeMux

	useCache      bool
	prewarmLevels int // levels to pre-warm top communities for (0 = no pre-warm)
	prewarmTop    int // `top` parameter warmed per level
	errLog        *log.Logger

	requests    atomic.Uint64
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
}

// Option configures a Server.
type Option func(*Server)

// WithoutQueryCache serves every query through the uncached path:
// recompute and re-encode per request. The cached and uncached paths
// are byte-identical (enforced by tests); this exists for baseline
// benchmarks and as an operator escape hatch.
func WithoutQueryCache() Option {
	return func(s *Server) { s.useCache = false }
}

// WithPrewarm tunes snapshot-publication pre-warming: for up to
// `levels` populated bitruss levels, the community listings (both the
// top=`top` page and the default page) plus /levels itself are encoded
// into the fresh snapshot's cache before it starts taking traffic. The
// cache's byte bound still applies — oversized listings are served but
// not retained. levels <= 0 disables pre-warming.
func WithPrewarm(levels, top int) Option {
	return func(s *Server) { s.prewarmLevels, s.prewarmTop = levels, top }
}

// WithErrorLog routes response-encoding failures to l (default: a
// stderr logger).
func WithErrorLog(l *log.Logger) Option {
	return func(s *Server) { s.errLog = l }
}

// reqCtx carries per-request routing facts resolved by the dispatch
// layer: which dataset the request addresses and the query values
// parsed exactly once for GET routes.
type reqCtx struct {
	name string
	q    url.Values
}

// route is one row of the API routing table. The table is the single
// source of truth for the surface — registration, the 405 Allow set
// (computed by the mux from these patterns) and the README reference
// all derive from it.
type route struct {
	method  string
	pattern string
	// params marks routes that read query parameters; only those pay
	// the r.URL.Query() parse (it allocates, and the hot cached path is
	// allocation-disciplined).
	params bool
	fn     func(*Server, http.ResponseWriter, *http.Request, reqCtx)
}

func routeTable() []route {
	return []route{
		{http.MethodGet, "/v1/healthz", false, (*Server).handleHealthz},
		{http.MethodGet, "/v1/datasets", false, (*Server).handleListDatasets},
		{http.MethodPost, "/v1/datasets", false, (*Server).handleAddDataset},
		{http.MethodGet, "/v1/datasets/{name}", false, (*Server).handleGetDataset},
		{http.MethodDelete, "/v1/datasets/{name}", false, (*Server).handleDeleteDataset},
		{http.MethodPost, "/v1/datasets/{name}/edges", false, (*Server).handleMutate},
		{http.MethodDelete, "/v1/datasets/{name}/edges", false, (*Server).handleDeleteEdges},
		{http.MethodGet, "/v1/datasets/{name}/version", false, (*Server).handleVersion},
		{http.MethodPost, "/v1/datasets/{name}/decompose", false, (*Server).handleDecompose},
		{http.MethodGet, "/v1/datasets/{name}/jobs", false, (*Server).handleJobs},
		{http.MethodGet, "/v1/datasets/{name}/jobs/{id}", false, (*Server).handleJob},
		{http.MethodGet, "/v1/datasets/{name}/phi", true, (*Server).handlePhi},
		{http.MethodGet, "/v1/datasets/{name}/support", true, (*Server).handleSupport},
		{http.MethodGet, "/v1/datasets/{name}/levels", false, (*Server).handleLevels},
		{http.MethodGet, "/v1/datasets/{name}/communities", true, (*Server).handleCommunities},
		{http.MethodGet, "/v1/datasets/{name}/community_of", true, (*Server).handleCommunityOf},
		{http.MethodGet, "/v1/datasets/{name}/kbitruss", true, (*Server).handleKBitruss},
		{http.MethodGet, "/v1/datasets/{name}/tip", true, (*Server).handleTip},
		{http.MethodGet, "/v1/datasets/{name}/theta", true, (*Server).handleTheta},
		{http.MethodGet, "/v1/datasets/{name}/bicliques", true, (*Server).handleBicliques},
		{http.MethodPost, "/v1/datasets/{name}/query", false, (*Server).handleBatchQuery},
	}
}

// register wires one table row into the mux, resolving the dataset
// name from the path and parsing the query only for routes that read
// it.
func (s *Server) register(rt route) {
	fn := rt.fn
	s.mux.HandleFunc(rt.method+" "+rt.pattern, func(w http.ResponseWriter, r *http.Request) {
		rc := reqCtx{name: r.PathValue("name")}
		if rt.params {
			rc.q = r.URL.Query()
		}
		fn(s, w, r, rc)
	})
}

// New builds a Server over an existing engine (which may already hold
// datasets loaded at startup).
func New(eng *engine.Engine, opts ...Option) *Server {
	s := &Server{
		eng:           eng,
		mux:           http.NewServeMux(),
		useCache:      true,
		prewarmLevels: 16,
		prewarmTop:    10,
		errLog:        log.New(os.Stderr, "server: ", log.LstdFlags),
	}
	for _, o := range opts {
		o(s)
	}
	for _, rt := range routeTable() {
		s.register(rt)
	}
	if s.useCache && s.prewarmLevels > 0 {
		eng.SetPublishHook(s.warmSnapshot)
	}
	return s
}

// Stats is a point-in-time read of the server's serving counters.
type Stats struct {
	Requests    uint64 `json:"requests"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

// Stats returns the request and cache counters accumulated since start.
// Hits count cached responses and singleflight joins; misses count
// fills. Uncached endpoints contribute to neither.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:    s.requests.Load(),
		CacheHits:   s.cacheHits.Load(),
		CacheMisses: s.cacheMisses.Load(),
	}
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP implements http.Handler. Router-level failures (no such
// route, wrong method) are intercepted and rewritten into the v1 error
// envelope — the mux computes the 405 Allow set from the route table's
// registered patterns, and the interceptor keeps that header while
// replacing the plain-text body.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	iw := &muxErrorWriter{rw: w}
	s.mux.ServeHTTP(iw, r)
	iw.finish(r)
}

// muxErrorWriter passes handler responses through untouched (handlers
// always set a JSON Content-Type before writing) and captures the
// mux's own text/plain 404/405 replies so finish can re-render them as
// error envelopes.
type muxErrorWriter struct {
	rw          http.ResponseWriter
	status      int
	wroteHeader bool
	intercepted bool
}

func (iw *muxErrorWriter) Header() http.Header { return iw.rw.Header() }

func (iw *muxErrorWriter) WriteHeader(code int) {
	if iw.wroteHeader {
		return
	}
	iw.wroteHeader = true
	if (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) &&
		!strings.HasPrefix(iw.rw.Header().Get("Content-Type"), "application/json") {
		iw.status = code
		iw.intercepted = true
		return
	}
	iw.rw.WriteHeader(code)
}

func (iw *muxErrorWriter) Write(p []byte) (int, error) {
	if !iw.wroteHeader {
		iw.WriteHeader(http.StatusOK)
	}
	if iw.intercepted {
		return len(p), nil // swallow http.Error's plain-text body
	}
	return iw.rw.Write(p)
}

func (iw *muxErrorWriter) finish(r *http.Request) {
	if !iw.intercepted {
		return
	}
	h := iw.rw.Header()
	h.Del("X-Content-Type-Options")
	switch iw.status {
	case http.StatusMethodNotAllowed:
		p := errorPayload{
			Code:    CodeMethodNotAllowed,
			Message: fmt.Sprintf("method %s is not allowed for %s", r.Method, r.URL.Path),
		}
		if allow := h.Get("Allow"); allow != "" {
			p.Details = map[string]any{"allow": allow}
		}
		writeV1Error(iw.rw, http.StatusMethodNotAllowed, p)
	default:
		writeV1Error(iw.rw, http.StatusNotFound, errorPayload{
			Code:    CodeRouteNotFound,
			Message: fmt.Sprintf("no route for %s %s", r.Method, r.URL.Path),
		})
	}
}

// requireJSONBody enforces the body contract: a request that declares
// a Content-Type other than JSON is rejected with 415 before any bytes
// are decoded. An absent Content-Type is accepted (bare curl).
func requireJSONBody(r *http.Request) error {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return nil
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return &mediaTypeError{contentType: ct}
	}
	if mt == "application/json" || strings.HasSuffix(mt, "+json") {
		return nil
	}
	return &mediaTypeError{contentType: ct}
}

// decodeBody decodes a size-capped JSON request body, enforcing the
// JSON Content-Type contract first.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	if err := requireJSONBody(r); err != nil {
		return err
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return badRequestf("decoding body: %v", err)
	}
	return nil
}

// encBuf pairs a reusable buffer with a JSON encoder writing into it,
// so the steady state allocates neither per response.
type encBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	eb := &encBuf{}
	eb.enc = json.NewEncoder(&eb.buf)
	eb.enc.SetEscapeHTML(false)
	return eb
}}

// maxPooledBuf keeps one-off giant responses (full k-bitruss dumps)
// from pinning pool memory forever.
const maxPooledBuf = 1 << 20

// getEnc hands out a pooled encoder; callers release via putEnc.
//
//bitlint:pooled
func getEnc() *encBuf {
	eb := encPool.Get().(*encBuf)
	eb.buf.Reset()
	return eb
}

// putEnc returns an encoder to the pool (oversized ones go to GC).
//
//bitlint:pooledrelease
func putEnc(eb *encBuf) {
	if eb.buf.Cap() <= maxPooledBuf {
		encPool.Put(eb)
	}
}

// keyPool recycles the small scratch buffers cache keys are built in;
// the cache's hit path never retains them.
var keyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 96)
	return &b
}}

// maxPooledKey keeps oversized batch keys from pinning pool memory.
const maxPooledKey = 1 << 16

// writeJSON encodes v through a pooled encoder. Encoding failures are
// logged and turn into a clean 500 — never a truncated 200 body.
// contentTypeJSON is the shared Content-Type header value: assigning
// it directly (instead of Header().Set, which builds a fresh one-
// element slice per response) keeps the cached serving path free of
// per-request allocations. Nothing may append to or mutate it.
var contentTypeJSON = []string{"application/json"}

// setJSONContentType stamps the response Content-Type without
// allocating.
func setJSONContentType(w http.ResponseWriter) {
	w.Header()["Content-Type"] = contentTypeJSON
}

func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	eb := getEnc()
	defer putEnc(eb)
	if err := eb.enc.Encode(v); err != nil {
		s.errLog.Printf("%s %s: encoding response: %v", r.Method, r.URL.Path, err)
		writeV1Error(w, http.StatusInternalServerError, errorPayload{
			Code: CodeInternal, Message: "internal: encoding response failed",
		})
		return
	}
	setJSONContentType(w)
	w.WriteHeader(status)
	_, _ = w.Write(eb.buf.Bytes())
}

// encodeToBytes runs fill and marshals its value through the pooled
// encoder into a stable copy fit for cache storage. It is the single
// encode path shared by cache misses and the pre-warmer, so warmed
// bytes are exactly what a cold fill would have produced.
func encodeToBytes(fill func() (any, error)) ([]byte, error) {
	v, err := fill()
	if err != nil {
		return nil, err
	}
	eb := getEnc()
	defer putEnc(eb)
	if err := eb.enc.Encode(v); err != nil {
		return nil, fmt.Errorf("encoding response: %w", err)
	}
	return bytes.Clone(eb.buf.Bytes()), nil
}

// respond serves one hot-endpoint response: from the snapshot cache
// when enabled (key identifies endpoint+params; the snapshot identifies
// dataset+version), through the pooled uncached path otherwise. fill
// returns the response value to encode; both paths produce identical
// bytes.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, vw *engine.View, key []byte, fill func() (any, error)) {
	if !s.useCache {
		v, err := fill()
		if err != nil {
			writeError(w, err)
			return
		}
		s.writeJSON(w, r, http.StatusOK, v)
		return
	}
	data, hit, err := vw.Cached(key, func() ([]byte, error) { return encodeToBytes(fill) })
	if err != nil {
		writeError(w, err)
		return
	}
	if hit {
		s.cacheHits.Add(1)
	} else {
		s.cacheMisses.Add(1)
	}
	setJSONContentType(w)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, rc reqCtx) {
	s.writeJSON(w, r, http.StatusOK, map[string]string{"status": "ok"})
}

// memoryJSON is the wire form of engine.MemoryStats: the resident
// footprint of the dataset's served snapshot, broken down by structure.
type memoryJSON struct {
	GraphBytes   int64   `json:"graph_bytes"`
	ResultBytes  int64   `json:"result_bytes,omitempty"`
	IndexBytes   int64   `json:"index_bytes,omitempty"`
	TipBytes     int64   `json:"tip_bytes,omitempty"`
	TotalBytes   int64   `json:"total_bytes"`
	BytesPerEdge float64 `json:"bytes_per_edge"`
}

// datasetJSON is the wire form of engine.DatasetInfo.
type datasetJSON struct {
	Name    string     `json:"name"`
	Upper   int        `json:"upper"`
	Lower   int        `json:"lower"`
	Edges   int        `json:"edges"`
	Version int64      `json:"version"`
	Pending int        `json:"pending,omitempty"`
	Status  string     `json:"status"`
	Algo    string     `json:"algorithm,omitempty"`
	MaxPhi  int64      `json:"max_phi,omitempty"`
	Levels  int        `json:"levels,omitempty"`
	TimeMS  int64      `json:"decompose_ms,omitempty"`
	JobID   int64      `json:"job_id,omitempty"`
	Memory  memoryJSON `json:"memory"`
	Message string     `json:"error,omitempty"`
}

func toDatasetJSON(i engine.DatasetInfo) datasetJSON {
	return datasetJSON{
		Name:    i.Name,
		Upper:   i.Upper,
		Lower:   i.Lower,
		Edges:   i.Edges,
		Version: i.Version,
		Pending: i.Pending,
		Status:  i.Status.String(),
		Algo:    i.Algo,
		MaxPhi:  i.MaxPhi,
		Levels:  i.Levels,
		TimeMS:  i.TotalTime.Milliseconds(),
		JobID:   i.JobID,
		Memory: memoryJSON{
			GraphBytes:   i.Mem.GraphBytes,
			ResultBytes:  i.Mem.ResultBytes,
			IndexBytes:   i.Mem.IndexBytes,
			TipBytes:     i.Mem.TipBytes,
			TotalBytes:   i.Mem.TotalBytes,
			BytesPerEdge: i.Mem.BytesPerEdge,
		},
		Message: i.Err,
	}
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request, rc reqCtx) {
	infos := s.eng.List()
	out := make([]datasetJSON, len(infos))
	for i, info := range infos {
		out[i] = toDatasetJSON(info)
	}
	s.writeJSON(w, r, http.StatusOK, out)
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request, rc reqCtx) {
	info, err := s.eng.Info(rc.name)
	if err != nil {
		writeError(w, err)
		return
	}
	s.writeJSON(w, r, http.StatusOK, toDatasetJSON(info))
}

type addDatasetRequest struct {
	Name     string   `json:"name"`
	Path     string   `json:"path,omitempty"`
	OneBased bool     `json:"one_based,omitempty"`
	Edges    [][2]int `json:"edges,omitempty"`
}

func (s *Server) handleAddDataset(w http.ResponseWriter, r *http.Request, rc reqCtx) {
	var req addDatasetRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Name == "" {
		writeError(w, badRequestf("name is required"))
		return
	}
	var err error
	switch {
	case req.Path != "" && len(req.Edges) > 0:
		err = badRequestf("path and edges are mutually exclusive")
	case req.Path != "":
		if err = s.eng.Load(req.Name, req.Path, req.OneBased); err != nil && !errors.Is(err, engine.ErrExists) {
			// Unreadable or malformed files are a client problem.
			err = badRequestf("loading %q: %v", req.Path, err)
		}
	case len(req.Edges) > 0:
		var g *bigraph.Graph
		g, err = bigraph.FromEdges(req.Edges)
		if err != nil {
			// Out-of-range vertex ids and the like.
			err = badRequestf("edges: %v", err)
		} else {
			err = s.eng.Register(req.Name, g)
		}
	default:
		err = badRequestf("either path or edges is required")
	}
	if err != nil {
		writeError(w, err)
		return
	}
	info, err := s.eng.Info(req.Name)
	if err != nil {
		writeError(w, err)
		return
	}
	s.writeJSON(w, r, http.StatusCreated, toDatasetJSON(info))
}

func (s *Server) handleDeleteDataset(w http.ResponseWriter, r *http.Request, rc reqCtx) {
	if err := s.eng.Remove(rc.name); err != nil {
		writeError(w, err)
		return
	}
	s.writeJSON(w, r, http.StatusOK, map[string]string{"status": "removed"})
}

// mutateRequest is the wire form of engine.MutateRequest.
type mutateRequest struct {
	Insert [][2]int `json:"insert,omitempty"`
	Delete [][2]int `json:"delete,omitempty"`
	// Wait blocks until the mutation is part of the served snapshot;
	// fire-and-forget requests return 202 with the staging state.
	Wait bool `json:"wait,omitempty"`
}

// mutateJSON is the wire form of engine.MutateResult.
type mutateJSON struct {
	Dataset    string `json:"dataset"`
	Version    int64  `json:"version"`
	Pending    int    `json:"pending,omitempty"`
	Applied    bool   `json:"applied"`
	Inserted   int    `json:"inserted,omitempty"`
	Deleted    int    `json:"deleted,omitempty"`
	Maintained bool   `json:"maintained,omitempty"`
	FellBack   bool   `json:"fell_back,omitempty"`
	Candidates int    `json:"candidates,omitempty"`
	ChangedPhi int    `json:"changed_phi,omitempty"`
	TimeMS     int64  `json:"apply_ms"`
}

func (s *Server) mutate(w http.ResponseWriter, r *http.Request, rc reqCtx, req engine.MutateRequest) {
	if len(req.Insert) == 0 && len(req.Delete) == 0 {
		writeError(w, badRequestf("mutation needs insert or delete pairs"))
		return
	}
	res, err := s.eng.Mutate(r.Context(), rc.name, req)
	if err != nil {
		writeError(w, err)
		return
	}
	status := http.StatusAccepted
	if req.Wait {
		status = http.StatusOK
	}
	s.writeJSON(w, r, status, mutateJSON{
		Dataset:    rc.name,
		Version:    res.Version,
		Pending:    res.Pending,
		Applied:    res.Applied,
		Inserted:   res.Inserted,
		Deleted:    res.Deleted,
		Maintained: res.Maintained,
		FellBack:   res.FellBack,
		Candidates: res.Candidates,
		ChangedPhi: res.ChangedPhi,
		TimeMS:     res.Duration.Milliseconds(),
	})
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request, rc reqCtx) {
	var req mutateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	s.mutate(w, r, rc, engine.MutateRequest{Insert: req.Insert, Delete: req.Delete, Wait: req.Wait})
}

// handleDeleteEdges is deletion-only sugar over the mutation path.
func (s *Server) handleDeleteEdges(w http.ResponseWriter, r *http.Request, rc reqCtx) {
	var req struct {
		Edges [][2]int `json:"edges"`
		Wait  bool     `json:"wait,omitempty"`
	}
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	s.mutate(w, r, rc, engine.MutateRequest{Delete: req.Edges, Wait: req.Wait})
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request, rc reqCtx) {
	info, err := s.eng.Info(rc.name)
	if err != nil {
		writeError(w, err)
		return
	}
	out := map[string]any{
		"dataset": rc.name,
		"version": info.Version,
		"pending": info.Pending,
		"status":  info.Status.String(),
	}
	if log, err := s.eng.MutationLog(rc.name); err == nil && len(log) > 0 {
		last := log[len(log)-1]
		out["last_mutation"] = map[string]any{
			"epoch":       last.Epoch,
			"version":     last.Version,
			"requests":    last.Requests,
			"inserted":    last.Inserted,
			"deleted":     last.Deleted,
			"maintained":  last.Maintained,
			"fell_back":   last.FellBack,
			"candidates":  last.Candidates,
			"changed_phi": last.ChangedPhi,
			"workers":     last.Workers,
			"stage_ms":    last.StageTime.Milliseconds(),
			"delta_ms":    last.DeltaTime.Milliseconds(),
			"peel_ms":     last.PeelTime.Milliseconds(),
			"index_ms":    last.IndexTime.Milliseconds(),
			"publish_ms":  last.PublishTime.Milliseconds(),
			"apply_ms":    last.Duration.Milliseconds(),
		}
	}
	s.writeJSON(w, r, http.StatusOK, out)
}

type decomposeRequest struct {
	// Dataset is optional and must match the path when set.
	Dataset   string  `json:"dataset,omitempty"`
	Algorithm string  `json:"algorithm,omitempty"`
	Tau       float64 `json:"tau,omitempty"`
	Workers   int     `json:"workers,omitempty"`
	Ranges    int     `json:"ranges,omitempty"`
	// Wait blocks the request until the decomposition finishes; by
	// default the run continues in the background and /datasets reports
	// its progress.
	Wait bool `json:"wait,omitempty"`
}

func (s *Server) handleDecompose(w http.ResponseWriter, r *http.Request, rc reqCtx) {
	var req decomposeRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	name := rc.name
	if req.Dataset != "" && req.Dataset != name {
		writeError(w, badRequestf("body dataset %q does not match path dataset %q", req.Dataset, name))
		return
	}
	algo := core.BiTBUPlusPlus
	if req.Algorithm != "" {
		var ok bool
		if algo, ok = core.ParseAlgorithm(req.Algorithm); !ok {
			writeError(w, badRequestf("unknown algorithm %q", req.Algorithm))
			return
		}
	}
	opt := engine.Options{Algorithm: algo, Tau: req.Tau, Workers: req.Workers, Ranges: req.Ranges}
	status := http.StatusAccepted
	if req.Wait {
		// A waited run is request-scoped: closing the connection
		// cancels the peeling loops. The work is done when we reply,
		// so the status is 200, not 202.
		if err := s.eng.Decompose(r.Context(), name, opt); err != nil {
			writeError(w, err)
			return
		}
		status = http.StatusOK
	} else if _, err := s.eng.StartDecompose(context.WithoutCancel(r.Context()), name, opt); err != nil {
		writeError(w, err)
		return
	}
	info, err := s.eng.Info(name)
	if err != nil {
		writeError(w, err)
		return
	}
	s.writeJSON(w, r, status, toDatasetJSON(info))
}

// jobJSON is the wire form of engine.JobInfo. done/total count edges
// whose bitruss number is finalized; polling a running job sees them
// advance through the peel.
type jobJSON struct {
	ID        int64   `json:"id"`
	Dataset   string  `json:"dataset"`
	Algo      string  `json:"algorithm"`
	State     string  `json:"state"`
	Stage     string  `json:"stage"`
	Done      int64   `json:"done"`
	Total     int64   `json:"total"`
	Percent   float64 `json:"percent"`
	ElapsedMS int64   `json:"elapsed_ms"`
	Message   string  `json:"error,omitempty"`
}

func toJobJSON(i engine.JobInfo) jobJSON {
	out := jobJSON{
		ID:        i.ID,
		Dataset:   i.Dataset,
		Algo:      i.Algo,
		State:     i.State.String(),
		Stage:     i.Stage,
		Done:      i.Done,
		Total:     i.Total,
		ElapsedMS: i.Elapsed.Milliseconds(),
		Message:   i.Err,
	}
	switch {
	case i.Total > 0:
		out.Percent = 100 * float64(i.Done) / float64(i.Total)
	case i.State == engine.JobDone:
		out.Percent = 100
	}
	return out
}

// Job responses are deliberately uncached: their whole point is to
// change between polls of the same URL, so they never touch the
// per-snapshot response cache.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request, rc reqCtx) {
	jobs, err := s.eng.Jobs(rc.name)
	if err != nil {
		writeError(w, err)
		return
	}
	out := make([]jobJSON, len(jobs))
	for i, j := range jobs {
		out[i] = toJobJSON(j)
	}
	s.writeJSON(w, r, http.StatusOK, struct {
		Dataset string    `json:"dataset"`
		Jobs    []jobJSON `json:"jobs"`
	}{Dataset: rc.name, Jobs: out})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request, rc reqCtx) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, badRequestf("job id: %v", err))
		return
	}
	info, err := s.eng.Job(rc.name, id)
	if err != nil {
		writeError(w, err)
		return
	}
	s.writeJSON(w, r, http.StatusOK, toJobJSON(info))
}

// queryInt parses a required integer query parameter. Handlers parse
// r.URL.Query() exactly once (at dispatch) and thread the values
// through — every url.Values lookup via r.URL.Query() re-parses the
// raw query string and allocates.
func queryInt(q url.Values, name string) (int64, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, badRequestf("%s is required", name)
	}
	n, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, badRequestf("%s: %v", name, err)
	}
	return n, nil
}

// Typed wire forms of the hot query endpoints: encoding a struct
// through the pooled encoder allocates nothing per request, unlike the
// map[string]any forms these replaced.
type edgeQueryResponse struct {
	Dataset string `json:"dataset"`
	Version int64  `json:"version"`
	U       int64  `json:"u"`
	V       int64  `json:"v"`
	Phi     *int64 `json:"phi,omitempty"`
	Support *int64 `json:"support,omitempty"`
}

type levelsResponse struct {
	Dataset string  `json:"dataset"`
	Version int64   `json:"version"`
	Levels  []int64 `json:"levels"`
}

type communitiesResponse struct {
	Dataset     string             `json:"dataset"`
	Version     int64              `json:"version"`
	K           int64              `json:"k"`
	Total       int                `json:"total"`
	Communities []engine.Community `json:"communities"`
	// NextCursor is set on paginated listings when further pages exist;
	// pass it back as ?cursor= to continue the walk.
	NextCursor string `json:"next_cursor,omitempty"`
}

type communityOfResponse struct {
	Dataset   string           `json:"dataset"`
	Version   int64            `json:"version"`
	K         int64            `json:"k"`
	Community engine.Community `json:"community"`
}

type kbitrussEdge struct {
	U   int64 `json:"u"`
	V   int64 `json:"v"`
	Phi int64 `json:"phi"`
}

type kbitrussResponse struct {
	Dataset string         `json:"dataset"`
	Version int64          `json:"version"`
	K       int64          `json:"k"`
	Edges   []kbitrussEdge `json:"edges"`
}

// Cache keys identify (endpoint, params); the snapshot the cache hangs
// off already pins (dataset, version). Keys are built into pooled
// buffers — getKey/putKey bracket every use.
//
//bitlint:pooled
func getKey() *[]byte { return keyPool.Get().(*[]byte) }

// putKey returns a key buffer to the pool (oversized ones go to GC).
//
//bitlint:pooledrelease
func putKey(b *[]byte) {
	if cap(*b) > maxPooledKey {
		return
	}
	*b = (*b)[:0]
	keyPool.Put(b)
}

func edgeQueryKey(b []byte, endpoint string, u, v int64) []byte {
	b = append(b, endpoint...)
	b = append(b, '|')
	b = strconv.AppendInt(b, u, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, v, 10)
	return b
}

// communitiesKey identifies one community listing shape: the rank
// window [offset, offset+size). Paged (cursor-capable) and top-style requests
// of the same window produce different bytes (next_cursor), so the
// mode is part of the key.
func communitiesKey(b []byte, k int64, size, offset int, paged bool) []byte {
	b = append(b, "communities|"...)
	b = strconv.AppendInt(b, k, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(size), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(offset), 10)
	if paged {
		b = append(b, "|c"...)
	}
	return b
}

func communityOfKey(b []byte, layer engine.Layer, vertex, k int64) []byte {
	b = append(b, "community_of|"...)
	b = strconv.AppendInt(b, int64(layer), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, vertex, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, k, 10)
	return b
}

func kbitrussKey(b []byte, k int64) []byte {
	b = append(b, "kbitruss|"...)
	b = strconv.AppendInt(b, k, 10)
	return b
}

func (s *Server) handlePhi(w http.ResponseWriter, r *http.Request, rc reqCtx) {
	u, err := queryInt(rc.q, "u")
	if err != nil {
		writeError(w, err)
		return
	}
	v, err := queryInt(rc.q, "v")
	if err != nil {
		writeError(w, err)
		return
	}
	vw, err := s.eng.View(rc.name)
	if err != nil {
		writeError(w, err)
		return
	}
	kb := getKey()
	defer putKey(kb)
	s.respond(w, r, vw, edgeQueryKey(*kb, "phi", u, v), func() (any, error) {
		phi, err := vw.Phi(int(u), int(v))
		if err != nil {
			return nil, err
		}
		return edgeQueryResponse{Dataset: rc.name, Version: vw.Version(), U: u, V: v, Phi: &phi}, nil
	})
}

func (s *Server) handleSupport(w http.ResponseWriter, r *http.Request, rc reqCtx) {
	u, err := queryInt(rc.q, "u")
	if err != nil {
		writeError(w, err)
		return
	}
	v, err := queryInt(rc.q, "v")
	if err != nil {
		writeError(w, err)
		return
	}
	vw, err := s.eng.View(rc.name)
	if err != nil {
		writeError(w, err)
		return
	}
	kb := getKey()
	defer putKey(kb)
	s.respond(w, r, vw, edgeQueryKey(*kb, "support", u, v), func() (any, error) {
		sup, err := vw.Support(int(u), int(v))
		if err != nil {
			return nil, err
		}
		return edgeQueryResponse{Dataset: rc.name, Version: vw.Version(), U: u, V: v, Support: &sup}, nil
	})
}

// fillLevels builds the /levels response; shared by the handler and the
// pre-warmer so warmed bytes are exactly what the handler would serve.
func fillLevels(name string, vw *engine.View) func() (any, error) {
	return func() (any, error) {
		levels, err := vw.Levels()
		if err != nil {
			return nil, err
		}
		return levelsResponse{Dataset: name, Version: vw.Version(), Levels: levels}, nil
	}
}

// fillCommunities builds the /communities response for one rank
// window; shared by the handler and the pre-warmer. Only paged
// (limit/cursor-style) requests hand out a next_cursor — a top=N
// request has no way to use one (the handler rejects cursor+top).
func fillCommunities(name string, vw *engine.View, k int64, size, offset int, paged bool) func() (any, error) {
	return func() (any, error) {
		cs, total, err := vw.CommunitiesPage(k, offset, size)
		if err != nil {
			return nil, err
		}
		resp := communitiesResponse{Dataset: name, Version: vw.Version(), K: k, Total: total, Communities: cs}
		if paged && offset+len(cs) < total {
			resp.NextCursor = encodeCursor(k, offset+len(cs))
		}
		return resp, nil
	}
}

// Community pagination cursors are opaque base64url tokens encoding
// the level and the next rank offset. They carry no snapshot pin —
// each page answers from the version current at request time (stamped
// in the response); clients needing a cut-free walk check the version
// field or use the batch endpoint.
func encodeCursor(k int64, offset int) string {
	return base64.RawURLEncoding.EncodeToString(fmt.Appendf(nil, "k=%d&o=%d", k, offset))
}

func decodeCursor(s string) (k int64, offset int, err error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return 0, 0, badRequestf("cursor: malformed token")
	}
	var o int64
	if n, err := fmt.Sscanf(string(raw), "k=%d&o=%d", &k, &o); err != nil || n != 2 || o < 0 {
		return 0, 0, badRequestf("cursor: malformed token")
	}
	return k, int(o), nil
}

func (s *Server) handleLevels(w http.ResponseWriter, r *http.Request, rc reqCtx) {
	vw, err := s.eng.View(rc.name)
	if err != nil {
		writeError(w, err)
		return
	}
	kb := getKey()
	defer putKey(kb)
	s.respond(w, r, vw, append(*kb, "levels"...), fillLevels(rc.name, vw))
}

func (s *Server) handleCommunities(w http.ResponseWriter, r *http.Request, rc reqCtx) {
	k, err := queryInt(rc.q, "k")
	if err != nil {
		writeError(w, err)
		return
	}
	topRaw, limitRaw, cursorRaw := rc.q.Get("top"), rc.q.Get("limit"), rc.q.Get("cursor")
	// size is the page length, offset the rank the page starts at;
	// paged selects cursor-capable responses (next_cursor handed out
	// when further pages exist). The default is the first
	// defaultCommunitiesLimit-long page.
	size, offset, paged := defaultCommunitiesLimit, 0, true
	switch {
	case topRaw != "" && limitRaw != "":
		writeError(w, badRequestf("top and limit are mutually exclusive"))
		return
	case topRaw != "":
		if cursorRaw != "" {
			writeError(w, badRequestf("cursor pagination uses limit, not top"))
			return
		}
		n, err := strconv.Atoi(topRaw)
		if err != nil || n < 0 {
			writeError(w, badRequestf("top: must be a non-negative integer"))
			return
		}
		size, paged = n, false
	case limitRaw != "":
		n, err := strconv.Atoi(limitRaw)
		if err != nil || n <= 0 {
			writeError(w, badRequestf("limit: must be a positive integer"))
			return
		}
		size = n
	}
	if cursorRaw != "" {
		ck, off, err := decodeCursor(cursorRaw)
		if err != nil {
			writeError(w, err)
			return
		}
		if ck != k {
			writeError(w, badRequestf("cursor: token is for k=%d, request says k=%d", ck, k))
			return
		}
		offset = off
	}
	vw, err := s.eng.View(rc.name)
	if err != nil {
		writeError(w, err)
		return
	}
	kb := getKey()
	defer putKey(kb)
	s.respond(w, r, vw, communitiesKey(*kb, k, size, offset, paged), fillCommunities(rc.name, vw, k, size, offset, paged))
}

func (s *Server) handleCommunityOf(w http.ResponseWriter, r *http.Request, rc reqCtx) {
	k, err := queryInt(rc.q, "k")
	if err != nil {
		writeError(w, err)
		return
	}
	vertex, err := queryInt(rc.q, "vertex")
	if err != nil {
		writeError(w, err)
		return
	}
	var layer engine.Layer
	switch rc.q.Get("layer") {
	case "upper", "":
		layer = engine.UpperLayer
	case "lower":
		layer = engine.LowerLayer
	default:
		writeError(w, badRequestf("layer must be upper or lower"))
		return
	}
	vw, err := s.eng.View(rc.name)
	if err != nil {
		writeError(w, err)
		return
	}
	kb := getKey()
	defer putKey(kb)
	s.respond(w, r, vw, communityOfKey(*kb, layer, vertex, k), func() (any, error) {
		c, ok, err := vw.CommunityOf(layer, int(vertex), k)
		if err != nil {
			return nil, err
		}
		if !ok {
			// Absence is a 404, never cached (errors skip the cache).
			return nil, notFoundf("vertex %d has no community at level %d", vertex, k)
		}
		return communityOfResponse{Dataset: rc.name, Version: vw.Version(), K: k, Community: c}, nil
	})
}

func (s *Server) handleKBitruss(w http.ResponseWriter, r *http.Request, rc reqCtx) {
	k, err := queryInt(rc.q, "k")
	if err != nil {
		writeError(w, err)
		return
	}
	vw, err := s.eng.View(rc.name)
	if err != nil {
		writeError(w, err)
		return
	}
	kb := getKey()
	defer putKey(kb)
	s.respond(w, r, vw, kbitrussKey(*kb, k), func() (any, error) {
		edges, err := vw.KBitrussEdges(k)
		if err != nil {
			return nil, err
		}
		out := make([]kbitrussEdge, len(edges))
		for i, e := range edges {
			out[i] = kbitrussEdge{U: e[0], V: e[1], Phi: e[2]}
		}
		return kbitrussResponse{Dataset: rc.name, Version: vw.Version(), K: k, Edges: out}, nil
	})
}

// warmSnapshot is the engine publish hook: when a dataset produces a
// fresh decomposed snapshot it encodes /levels and the top communities
// of the first prewarmLevels populated levels into the new snapshot's
// cache. The engine fires it before installing the snapshot, so the
// new version starts taking traffic with these entries already warm.
// It runs on the engine's background producer goroutine, never on a
// query path, and shares the handlers' fill/key/encode functions, so
// warmed bytes are byte-identical to cold responses.
func (s *Server) warmSnapshot(name string, vw *engine.View) {
	if !vw.Decomposed() {
		return
	}
	levels, err := vw.Levels()
	if err != nil {
		return
	}
	warm := func(key []byte, fill func() (any, error)) {
		_, _, _ = vw.Cached(key, func() ([]byte, error) { return encodeToBytes(fill) })
	}
	kb := getKey()
	defer putKey(kb)
	warm(append(*kb, "levels"...), fillLevels(name, vw))
	n := len(levels)
	if n > s.prewarmLevels {
		n = s.prewarmLevels
	}
	for _, k := range levels[:n] {
		// The request shapes clients actually send: the default page
		// (bounded at defaultCommunitiesLimit communities) and the
		// explicit top=prewarmTop page.
		kb2 := getKey()
		warm(communitiesKey(*kb2, k, defaultCommunitiesLimit, 0, true), fillCommunities(name, vw, k, defaultCommunitiesLimit, 0, true))
		putKey(kb2)
		kb2 = getKey()
		warm(communitiesKey(*kb2, k, s.prewarmTop, 0, false), fillCommunities(name, vw, k, s.prewarmTop, 0, false))
		putKey(kb2)
	}
}
