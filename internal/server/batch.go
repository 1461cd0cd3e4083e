package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/engine"
)

// POST /v1/datasets/{name}/query — the batch lookup endpoint. A biclique
// or biplex miner built on top of the bitruss decomposition probes
// φ/support for thousands of edges; paying one HTTP round-trip per edge
// dominates its runtime. One batch request answers N mixed lookups from
// a single snapshot acquisition (one View), so all answers are
// consistent with the one version the response reports — a guarantee N
// sequential GETs cannot give under concurrent mutations.
//
// Request:
//
//	{"queries": [{"op": "phi", "u": 0, "v": 1},
//	             {"op": "support", "u": 2, "v": 3},
//	             {"op": "community_of", "layer": "upper", "vertex": 4, "k": 2}]}
//
// Response: 200 with one result per query, in order; item failures
// (absent edges, vertices outside the k-bitruss) are reported per item
// as {code, message} without failing the batch. Malformed queries
// (unknown op, missing fields) fail the whole request with 400 —
// shape errors are client bugs, not data outcomes.
//
// The marshalled response is cached under a canonical key derived from
// the query list (order-sensitive, field-order-insensitive), so
// repeated identical batches — the steady state of a polling miner —
// hit the snapshot cache like any hot GET. Query items are parsed by a
// hand-rolled scanner (interned op/layer tokens, in-place integer
// parsing) so a 100-lookup batch costs a handful of allocations, not
// hundreds; items the scanner does not fully recognise (escaped keys,
// unknown fields) fall back to encoding/json for identical semantics.

// maxBatchQueries bounds one batch request.
const maxBatchQueries = 10000

type batchQueryRequest struct {
	Queries []json.RawMessage `json:"queries"`
}

// parsedBatchOp is one validated query: the engine op plus the echo
// metadata the response repeats back (interned strings, presence
// flags).
type parsedBatchOp struct {
	engine.BatchOp
	op        string // interned: "phi", "support", "community_of"
	layer     string // interned: "", "upper", "lower"
	hasU      bool
	hasV      bool
	hasVertex bool
	hasK      bool
}

// batchResultItem echoes the query it answers plus exactly one result
// field (or a per-item error). The echo pointers alias the parsed op
// slice — no per-field allocation.
type batchResultItem struct {
	Op        string            `json:"op"`
	U         *int              `json:"u,omitempty"`
	V         *int              `json:"v,omitempty"`
	Layer     string            `json:"layer,omitempty"`
	Vertex    *int              `json:"vertex,omitempty"`
	K         *int64            `json:"k,omitempty"`
	Phi       *int64            `json:"phi,omitempty"`
	Support   *int64            `json:"support,omitempty"`
	Community *engine.Community `json:"community,omitempty"`
	Error     *errorPayload     `json:"error,omitempty"`
}

type batchQueryResponse struct {
	Dataset string            `json:"dataset"`
	Version int64             `json:"version"`
	Count   int               `json:"count"`
	Results []batchResultItem `json:"results"`
}

// batchItemJSON is the reflection-based fallback form of one query
// item, used when the fast scanner bails out.
type batchItemJSON struct {
	Op     string `json:"op"`
	U      *int   `json:"u"`
	V      *int   `json:"v"`
	Layer  string `json:"layer"`
	Vertex *int   `json:"vertex"`
	K      *int64 `json:"k"`
}

// slowParseBatchItem is the encoding/json fallback: semantics
// identical to the fast path, allocation cost paid only by requests
// the scanner cannot handle.
func slowParseBatchItem(raw []byte, p *parsedBatchOp) error {
	var it batchItemJSON
	if err := json.Unmarshal(raw, &it); err != nil {
		return err
	}
	*p = parsedBatchOp{}
	// intern returns unmatched tokens unchanged, so this covers both
	// the known constants and the error-path echoes.
	p.op = intern(it.Op)
	p.layer = intern(it.Layer)
	if it.U != nil {
		p.U, p.hasU = *it.U, true
	}
	if it.V != nil {
		p.V, p.hasV = *it.V, true
	}
	if it.Vertex != nil {
		p.Vertex, p.hasVertex = *it.Vertex, true
	}
	if it.K != nil {
		p.K, p.hasK = *it.K, true
	}
	return nil
}

// intern maps the fixed wire tokens onto package-level constants so
// echoes share storage.
func intern(s string) string {
	switch s {
	case "phi":
		return opPhi
	case "support":
		return opSupport
	case "community_of":
		return opCommunityOf
	case "upper":
		return layerUpper
	case "lower":
		return layerLower
	}
	return s
}

const (
	opPhi         = "phi"
	opSupport     = "support"
	opCommunityOf = "community_of"
	layerUpper    = "upper"
	layerLower    = "lower"
)

// ---- fast batch item scanner ----------------------------------------

// errBailToSlow signals the fast scanner met JSON it does not handle
// (escapes, unknown keys, non-scalar values); the caller retries with
// encoding/json.
type bailError struct{}

func (bailError) Error() string { return "bail to slow path" }

var errBail = bailError{}

type itemScanner struct {
	b []byte
	i int
}

func (sc *itemScanner) skipWS() {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// token reads a quoted plain-ASCII string. Everything else bails to
// the slow path: escapes, raw control characters (invalid JSON, which
// encoding/json must get to reject) and non-ASCII bytes (encoding/json
// replaces invalid UTF-8 with U+FFFD; copying the raw bytes here would
// make the two paths echo different strings — found by
// FuzzParseBatchItem). Every token the scanner matches is ASCII, so
// this costs the fast path nothing.
func (sc *itemScanner) token() ([]byte, error) {
	if sc.i >= len(sc.b) || sc.b[sc.i] != '"' {
		return nil, errBail
	}
	sc.i++
	start := sc.i
	for sc.i < len(sc.b) {
		switch c := sc.b[sc.i]; {
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, errBail
		case c == '"':
			tok := sc.b[start:sc.i]
			sc.i++
			return tok, nil
		}
		sc.i++
	}
	return nil, errBail
}

// integer parses a JSON integer in place. Anything encoding/json would
// reject — a bare '-', leading zeros, floats, exponents — bails to the
// slow path so malformed bodies fail identically on both paths.
func (sc *itemScanner) integer() (int64, error) {
	neg := false
	if sc.i < len(sc.b) && sc.b[sc.i] == '-' {
		neg = true
		sc.i++
	}
	digStart := sc.i
	for sc.i < len(sc.b) && sc.b[sc.i] >= '0' && sc.b[sc.i] <= '9' {
		sc.i++
	}
	switch {
	case sc.i == digStart:
		return 0, errBail // no digits: bare '-' or not a number at all
	case sc.b[digStart] == '0' && sc.i-digStart > 1:
		return 0, errBail // leading zero: invalid JSON
	case sc.i < len(sc.b) && (sc.b[sc.i] == '.' || sc.b[sc.i] == 'e' || sc.b[sc.i] == 'E'):
		return 0, errBail // float/exponent
	}
	// Manual accumulation: strconv.ParseInt would force a string copy.
	var n int64
	for j := digStart; j < sc.i; j++ {
		d := int64(sc.b[j] - '0')
		if n > (1<<63-1-d)/10 {
			return 0, errBail // overflow: let encoding/json produce the error
		}
		n = n*10 + d
	}
	if neg {
		n = -n
	}
	return n, nil
}

// parseBatchItem scans one query object allocation-free. Any input
// outside the recognised flat shape falls back to encoding/json, so
// the fast path is an optimisation, never a semantic fork.
func parseBatchItem(raw []byte, p *parsedBatchOp) error {
	*p = parsedBatchOp{}
	sc := itemScanner{b: raw}
	sc.skipWS()
	if sc.i >= len(sc.b) || sc.b[sc.i] != '{' {
		return slowParseBatchItem(raw, p)
	}
	sc.i++
	sc.skipWS()
	if sc.i < len(sc.b) && sc.b[sc.i] == '}' {
		sc.i++
	} else {
		for {
			sc.skipWS()
			key, err := sc.token()
			if err != nil {
				return slowParseBatchItem(raw, p)
			}
			sc.skipWS()
			if sc.i >= len(sc.b) || sc.b[sc.i] != ':' {
				return slowParseBatchItem(raw, p)
			}
			sc.i++
			sc.skipWS()
			switch {
			case string(key) == "op":
				tok, err := sc.token()
				if err != nil {
					return slowParseBatchItem(raw, p)
				}
				switch {
				case string(tok) == opPhi:
					p.op = opPhi
				case string(tok) == opSupport:
					p.op = opSupport
				case string(tok) == opCommunityOf:
					p.op = opCommunityOf
				default:
					p.op = string(tok) // unknown op: alloc on the error path only
				}
			case string(key) == "layer":
				tok, err := sc.token()
				if err != nil {
					return slowParseBatchItem(raw, p)
				}
				switch {
				case string(tok) == layerUpper:
					p.layer = layerUpper
				case string(tok) == layerLower:
					p.layer = layerLower
				default:
					p.layer = string(tok)
				}
			case string(key) == "u":
				n, err := sc.integer()
				if err != nil {
					return slowParseBatchItem(raw, p)
				}
				p.U, p.hasU = int(n), true
			case string(key) == "v":
				n, err := sc.integer()
				if err != nil {
					return slowParseBatchItem(raw, p)
				}
				p.V, p.hasV = int(n), true
			case string(key) == "vertex":
				n, err := sc.integer()
				if err != nil {
					return slowParseBatchItem(raw, p)
				}
				p.Vertex, p.hasVertex = int(n), true
			case string(key) == "k":
				n, err := sc.integer()
				if err != nil {
					return slowParseBatchItem(raw, p)
				}
				p.K, p.hasK = n, true
			default:
				// Unknown key: the value could be arbitrarily nested;
				// encoding/json knows how to skip it.
				return slowParseBatchItem(raw, p)
			}
			sc.skipWS()
			if sc.i >= len(sc.b) {
				return slowParseBatchItem(raw, p)
			}
			if sc.b[sc.i] == ',' {
				sc.i++
				continue
			}
			if sc.b[sc.i] == '}' {
				sc.i++
				break
			}
			return slowParseBatchItem(raw, p)
		}
	}
	sc.skipWS()
	if sc.i != len(sc.b) {
		return slowParseBatchItem(raw, p)
	}
	return nil
}

// parseBatchOps validates the wire queries into engine ops, rejecting
// shape errors with the offending index.
func parseBatchOps(items []json.RawMessage) ([]parsedBatchOp, error) {
	ops := make([]parsedBatchOp, len(items))
	for i := range items {
		p := &ops[i]
		if err := parseBatchItem(items[i], p); err != nil {
			return nil, badRequestf("queries[%d]: %v", i, err)
		}
		switch p.op {
		case opPhi, opSupport:
			if !p.hasU || !p.hasV {
				return nil, badRequestf("queries[%d]: %s needs u and v", i, p.op)
			}
			p.Kind = engine.BatchPhi
			if p.op == opSupport {
				p.Kind = engine.BatchSupport
			}
		case opCommunityOf:
			if !p.hasVertex || !p.hasK {
				return nil, badRequestf("queries[%d]: community_of needs vertex and k", i)
			}
			switch p.layer {
			case layerUpper, "":
				p.Layer = engine.UpperLayer
			case layerLower:
				p.Layer = engine.LowerLayer
			default:
				return nil, badRequestf("queries[%d]: layer must be upper or lower", i)
			}
			p.Kind = engine.BatchCommunityOf
		case "":
			return nil, badRequestf("queries[%d]: op is required", i)
		default:
			return nil, badRequestf("queries[%d]: unknown op %q (want phi, support or community_of)", i, p.op)
		}
	}
	return ops, nil
}

// batchKey builds the canonical cache key of a parsed batch,
// independent of JSON field order. It must cover every byte the
// response can echo — not just the fields the op consumes: two
// requests differing only in a stray field or an explicit vs omitted
// layer produce different response bytes and must not share a cache
// entry. Each item contributes its op kind, a presence bitmap, every
// present value, and the (length-prefixed) layer token.
func batchKey(b []byte, ops []parsedBatchOp) []byte {
	b = append(b, "query|"...)
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case engine.BatchPhi:
			b = append(b, 'p')
		case engine.BatchSupport:
			b = append(b, 's')
		case engine.BatchCommunityOf:
			b = append(b, 'c')
		}
		var flags byte
		if op.hasU {
			flags |= 1
		}
		if op.hasV {
			flags |= 2
		}
		if op.hasVertex {
			flags |= 4
		}
		if op.hasK {
			flags |= 8
		}
		b = append(b, '0'+flags)
		if op.hasU {
			b = strconv.AppendInt(b, int64(op.U), 10)
			b = append(b, ',')
		}
		if op.hasV {
			b = strconv.AppendInt(b, int64(op.V), 10)
			b = append(b, ',')
		}
		if op.hasVertex {
			b = strconv.AppendInt(b, int64(op.Vertex), 10)
			b = append(b, ',')
		}
		if op.hasK {
			b = strconv.AppendInt(b, op.K, 10)
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(len(op.layer)), 10)
		b = append(b, ':')
		b = append(b, op.layer...)
		b = append(b, ';')
	}
	return b
}

// batchReqPool recycles the raw-message slices batch bodies decode
// into; encoding/json reuses the backing array when capacity allows.
var batchReqPool = sync.Pool{New: func() any { return &batchQueryRequest{} }}

// maxPooledBatchBytes bounds the RawMessage bytes a pooled request may
// keep referenced — one near-maxBodyBytes batch must not pin tens of
// megabytes per pool entry between GC cycles (same policy as
// maxPooledBuf/maxPooledKey).
const maxPooledBatchBytes = 1 << 20

func (s *Server) handleBatchQuery(w http.ResponseWriter, r *http.Request, rc reqCtx) {
	req := batchReqPool.Get().(*batchQueryRequest)
	req.Queries = req.Queries[:0]
	defer func() {
		// Sum over the full capacity: elements beyond the decoded length
		// from an earlier, larger request stay referenced by the backing
		// array even though this request never saw them.
		retained := 0
		for _, q := range req.Queries[:cap(req.Queries)] {
			retained += cap(q)
		}
		if cap(req.Queries) <= maxBatchQueries && retained <= maxPooledBatchBytes {
			batchReqPool.Put(req)
		}
	}()
	if err := decodeBody(w, r, req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, badRequestf("queries must not be empty"))
		return
	}
	if len(req.Queries) > maxBatchQueries {
		writeError(w, badRequestf("batch of %d queries exceeds the limit of %d", len(req.Queries), maxBatchQueries))
		return
	}
	ops, err := parseBatchOps(req.Queries)
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
	s.respond(w, r, vw, batchKey(*kb, ops), func() (any, error) {
		engOps := make([]engine.BatchOp, len(ops))
		for i := range ops {
			engOps[i] = ops[i].BatchOp
		}
		answers := vw.Batch(engOps)
		results := make([]batchResultItem, len(answers))
		for i := range answers {
			p := &ops[i]
			out := &results[i]
			out.Op, out.Layer = p.op, p.layer
			if p.hasU {
				out.U = &p.U
			}
			if p.hasV {
				out.V = &p.V
			}
			if p.hasVertex {
				out.Vertex = &p.Vertex
			}
			if p.hasK {
				out.K = &p.K
			}
			a := &answers[i]
			if a.Err != nil {
				code, _ := classify(a.Err)
				out.Error = &errorPayload{Code: code, Message: a.Err.Error()}
				continue
			}
			switch p.Kind {
			case engine.BatchPhi:
				out.Phi = &a.Value
			case engine.BatchSupport:
				out.Support = &a.Value
			case engine.BatchCommunityOf:
				out.Community = &a.Community
			}
		}
		return batchQueryResponse{Dataset: rc.name, Version: vw.Version(), Count: len(results), Results: results}, nil
	})
}
