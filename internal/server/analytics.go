package server

// The analytics endpoints (PR 10): tip decomposition and maximal
// biclique enumeration served from the same versioned snapshots as the
// bitruss queries. All three are cache-backed GETs — the engine
// memoises the underlying computation per snapshot, this layer
// additionally caches the final marshalled bytes like every other hot
// endpoint, and both layers drop with the snapshot on mutation.

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/engine"
)

// defaultBicliquesLimit caps an unqualified v1 /bicliques page.
// Enumerations can be huge; clients walk them with limit/cursor.
const defaultBicliquesLimit = 100

// parseLayer resolves the ?layer= parameter (absent = upper, matching
// /community_of) to the engine layer and its canonical response name.
func parseLayer(raw string) (engine.Layer, string, error) {
	switch raw {
	case "upper", "":
		return engine.UpperLayer, "upper", nil
	case "lower":
		return engine.LowerLayer, "lower", nil
	default:
		return 0, "", badRequestf("layer must be upper or lower")
	}
}

// tipResponse is the wire form of a tip-decomposition summary; the
// vertex/theta pair appears when the request named a vertex via ?v=.
type tipResponse struct {
	Dataset          string `json:"dataset"`
	Version          int64  `json:"version"`
	Layer            string `json:"layer"`
	Vertices         int    `json:"vertices"`
	MaxTheta         int64  `json:"max_theta"`
	TotalButterflies int64  `json:"total_butterflies"`
	SizeBytes        int64  `json:"size_bytes"`
	Vertex           *int64 `json:"vertex,omitempty"`
	Theta            *int64 `json:"theta,omitempty"`
}

type thetaResponse struct {
	Dataset string `json:"dataset"`
	Version int64  `json:"version"`
	Layer   string `json:"layer"`
	Vertex  int64  `json:"vertex"`
	Theta   int64  `json:"theta"`
}

// bicliqueJSON is the wire form of one maximal biclique (layer-local
// vertex ids, both sides ascending).
type bicliqueJSON struct {
	Upper []int32 `json:"upper"`
	Lower []int32 `json:"lower"`
}

type bicliquesResponse struct {
	Dataset   string         `json:"dataset"`
	Version   int64          `json:"version"`
	MinUpper  int            `json:"min_upper"`
	MinLower  int            `json:"min_lower"`
	Total     int            `json:"total"`
	Bicliques []bicliqueJSON `json:"bicliques"`
	// NextCursor is set when further pages exist; pass it back as
	// ?cursor= to continue the walk.
	NextCursor string `json:"next_cursor,omitempty"`
}

// tipKey identifies one tip response shape: the layer and (for ?v=
// requests) the vertex, -1 for the plain summary.
func tipKey(b []byte, layer engine.Layer, vertex int64) []byte {
	b = append(b, "tip|"...)
	b = strconv.AppendInt(b, int64(layer), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, vertex, 10)
	return b
}

func thetaKey(b []byte, layer engine.Layer, vertex int64) []byte {
	b = append(b, "theta|"...)
	b = strconv.AppendInt(b, int64(layer), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, vertex, 10)
	return b
}

func bicliquesKey(b []byte, minUpper, minLower, size, offset int) []byte {
	b = append(b, "bicliques|"...)
	b = strconv.AppendInt(b, int64(minUpper), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(minLower), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(size), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(offset), 10)
	return b
}

// Biclique pagination cursors are opaque base64url tokens encoding the
// size thresholds and the next rank offset into the deterministic
// enumeration order. Like community cursors they carry no snapshot pin
// — each page answers from (and stamps) the version current at request
// time; a client needing a cut-free walk checks the version field.
func encodeBicliqueCursor(minUpper, minLower, offset int) string {
	return base64.RawURLEncoding.EncodeToString(
		fmt.Appendf(nil, "mu=%d&ml=%d&o=%d", minUpper, minLower, offset))
}

func decodeBicliqueCursor(s string) (minUpper, minLower, offset int, err error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return 0, 0, 0, badRequestf("cursor: malformed token")
	}
	var mu, ml, o int64
	if n, err := fmt.Sscanf(string(raw), "mu=%d&ml=%d&o=%d", &mu, &ml, &o); err != nil || n != 3 || mu < 1 || ml < 1 || o < 0 {
		return 0, 0, 0, badRequestf("cursor: malformed token")
	}
	return int(mu), int(ml), int(o), nil
}

// queryThreshold parses an optional >= 1 integer parameter (absent =
// def), used for the biclique size thresholds.
func queryThreshold(q url.Values, name string, def int) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 1 {
		return 0, badRequestf("%s: must be a positive integer", name)
	}
	return n, nil
}

func (s *Server) handleTip(w http.ResponseWriter, r *http.Request, rc reqCtx) {
	layer, layerName, err := parseLayer(rc.q.Get("layer"))
	if err != nil {
		writeError(w, err)
		return
	}
	vertex := int64(-1)
	hasVertex := rc.q.Get("v") != ""
	if hasVertex {
		if vertex, err = queryInt(rc.q, "v"); err != nil {
			writeError(w, err)
			return
		}
	}
	vw, err := s.eng.View(rc.name)
	if err != nil {
		writeError(w, err)
		return
	}
	kb := getKey()
	defer putKey(kb)
	s.respond(w, r, vw, tipKey(*kb, layer, vertex), func() (any, error) {
		res, err := vw.Tip(layer)
		if err != nil {
			return nil, err
		}
		resp := tipResponse{
			Dataset:          rc.name,
			Version:          vw.Version(),
			Layer:            layerName,
			Vertices:         len(res.Theta),
			MaxTheta:         res.MaxTheta,
			TotalButterflies: res.TotalButterflies,
			SizeBytes:        res.SizeBytes(),
		}
		if hasVertex {
			theta, err := vw.Theta(layer, int(vertex))
			if err != nil {
				return nil, err
			}
			resp.Vertex, resp.Theta = &vertex, &theta
		}
		return resp, nil
	})
}

func (s *Server) handleTheta(w http.ResponseWriter, r *http.Request, rc reqCtx) {
	layer, layerName, err := parseLayer(rc.q.Get("layer"))
	if err != nil {
		writeError(w, err)
		return
	}
	vertex, err := queryInt(rc.q, "vertex")
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
	s.respond(w, r, vw, thetaKey(*kb, layer, vertex), func() (any, error) {
		theta, err := vw.Theta(layer, int(vertex))
		if err != nil {
			return nil, err
		}
		return thetaResponse{
			Dataset: rc.name,
			Version: vw.Version(),
			Layer:   layerName,
			Vertex:  vertex,
			Theta:   theta,
		}, nil
	})
}

func (s *Server) handleBicliques(w http.ResponseWriter, r *http.Request, rc reqCtx) {
	minUpper, err := queryThreshold(rc.q, "min_upper", 1)
	if err != nil {
		writeError(w, err)
		return
	}
	minLower, err := queryThreshold(rc.q, "min_lower", 1)
	if err != nil {
		writeError(w, err)
		return
	}
	size, offset := defaultBicliquesLimit, 0
	if limitRaw := rc.q.Get("limit"); limitRaw != "" {
		n, err := strconv.Atoi(limitRaw)
		if err != nil || n <= 0 {
			writeError(w, badRequestf("limit: must be a positive integer"))
			return
		}
		size = n
	}
	if cursorRaw := rc.q.Get("cursor"); cursorRaw != "" {
		mu, ml, off, err := decodeBicliqueCursor(cursorRaw)
		if err != nil {
			writeError(w, err)
			return
		}
		// Explicit thresholds must agree with the cursor's (absent ones
		// are inherited from it — a walk only needs to repeat the cursor).
		if rc.q.Get("min_upper") != "" && mu != minUpper {
			writeError(w, badRequestf("cursor: token is for min_upper=%d, request says min_upper=%d", mu, minUpper))
			return
		}
		if rc.q.Get("min_lower") != "" && ml != minLower {
			writeError(w, badRequestf("cursor: token is for min_lower=%d, request says min_lower=%d", ml, minLower))
			return
		}
		minUpper, minLower, offset = mu, ml, off
	}
	vw, err := s.eng.View(rc.name)
	if err != nil {
		writeError(w, err)
		return
	}
	kb := getKey()
	defer putKey(kb)
	s.respond(w, r, vw, bicliquesKey(*kb, minUpper, minLower, size, offset), func() (any, error) {
		page, total, err := vw.BicliquesPage(minUpper, minLower, offset, size)
		if err != nil {
			return nil, err
		}
		out := make([]bicliqueJSON, len(page))
		for i, bc := range page {
			out[i] = bicliqueJSON{Upper: bc.Upper, Lower: bc.Lower}
		}
		resp := bicliquesResponse{
			Dataset:   rc.name,
			Version:   vw.Version(),
			MinUpper:  minUpper,
			MinLower:  minLower,
			Total:     total,
			Bicliques: out,
		}
		if offset+len(page) < total {
			resp.NextCursor = encodeBicliqueCursor(minUpper, minLower, offset+len(page))
		}
		return resp, nil
	})
}
