package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/engine"
)

// The v1 error model: every failure is a machine-readable envelope
//
//	{"error": {"code": "...", "message": "...", "details": {...}}}
//
// with a stable code string mapped from the engine error (or the HTTP
// layer's own failure class) and the HTTP status implied by the code.

// Stable v1 error codes. These strings are part of the public API
// contract (the conformance test pins them); add, never change.
const (
	CodeBadRequest       = "bad_request"
	CodeDatasetNotFound  = "dataset_not_found"
	CodeEdgeNotFound     = "edge_not_found"
	CodeNotFound         = "not_found"
	CodeDatasetExists    = "dataset_exists"
	CodeDecomposeBusy    = "decompose_in_flight"
	CodeNotDecomposed    = "not_decomposed"
	CodeShuttingDown     = "shutting_down"
	CodeRecovering       = "recovering"
	CodeUnsupportedMedia = "unsupported_media_type"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeRouteNotFound    = "route_not_found"
	CodeInternal         = "internal"

	// Analytics codes (PR 10).
	CodeTipNotComputed      = "tip_not_computed"
	CodeEnumerationTooLarge = "enumeration_too_large"
	CodeVertexNotFound      = "vertex_not_found"
)

// errorPayload is the inner object of the v1 error envelope.
type errorPayload struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

// v1ErrorBody is the v1 error envelope.
type v1ErrorBody struct {
	Error errorPayload `json:"error"`
}

var (
	errBadRequest = errors.New("bad request")
	// errNotFound marks "queried object absent" outcomes (e.g. a vertex
	// with no community at the level) that map to 404 and are never
	// cached.
	errNotFound = errors.New("not found")
	// errUnsupportedMedia marks non-JSON request bodies (415).
	errUnsupportedMedia = errors.New("unsupported media type")
)

func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errBadRequest, fmt.Sprintf(format, args...))
}

// notFoundError maps to 404 while keeping the wire body exactly the
// formatted message (no wrapping prefix — clients match these strings).
type notFoundError struct{ msg string }

func (e *notFoundError) Error() string { return e.msg }
func (e *notFoundError) Is(target error) bool {
	return target == errNotFound
}

func notFoundf(format string, args ...any) error {
	return &notFoundError{msg: fmt.Sprintf(format, args...)}
}

// mediaTypeError maps to 415 and remembers the offending Content-Type
// for the envelope's details.
type mediaTypeError struct{ contentType string }

func (e *mediaTypeError) Error() string {
	return fmt.Sprintf("unsupported Content-Type %q: request bodies must be application/json", e.contentType)
}
func (e *mediaTypeError) Is(target error) bool { return target == errUnsupportedMedia }

// classify maps an error onto its v1 code and HTTP status. The order
// matters where errors wrap each other (none currently do).
func classify(err error) (code string, status int) {
	switch {
	case errors.Is(err, engine.ErrNotFound):
		return CodeDatasetNotFound, http.StatusNotFound
	case errors.Is(err, engine.ErrNoEdge):
		return CodeEdgeNotFound, http.StatusNotFound
	case errors.Is(err, engine.ErrNoCommunity), errors.Is(err, engine.ErrNoJob), errors.Is(err, errNotFound):
		return CodeNotFound, http.StatusNotFound
	case errors.Is(err, engine.ErrExists):
		return CodeDatasetExists, http.StatusConflict
	case errors.Is(err, engine.ErrBusy):
		return CodeDecomposeBusy, http.StatusConflict
	case errors.Is(err, engine.ErrNotDecomposed):
		return CodeNotDecomposed, http.StatusConflict
	case errors.Is(err, engine.ErrTipNotComputed):
		// 409: the resource exists but the operator disabled lazy
		// analytics and this snapshot was decomposed without tip state —
		// re-decomposing with tip enabled resolves the conflict.
		return CodeTipNotComputed, http.StatusConflict
	case errors.Is(err, engine.ErrEnumerationTooLarge):
		// 422: the request is well-formed but the enumeration exceeds
		// the engine's result bound; narrower thresholds can succeed.
		return CodeEnumerationTooLarge, http.StatusUnprocessableEntity
	case errors.Is(err, engine.ErrNoVertex):
		return CodeVertexNotFound, http.StatusNotFound
	case errors.Is(err, engine.ErrClosed):
		return CodeShuttingDown, http.StatusServiceUnavailable
	case errors.Is(err, engine.ErrRecovering):
		return CodeRecovering, http.StatusServiceUnavailable
	case errors.Is(err, errUnsupportedMedia):
		return CodeUnsupportedMedia, http.StatusUnsupportedMediaType
	case errors.Is(err, errBadRequest):
		return CodeBadRequest, http.StatusBadRequest
	default:
		return CodeInternal, http.StatusInternalServerError
	}
}

// errorDetails extracts structured details for errors that carry them.
func errorDetails(err error) map[string]any {
	var mt *mediaTypeError
	if errors.As(err, &mt) {
		return map[string]any{"content_type": mt.contentType}
	}
	return nil
}

// retryAfterSeconds is the Retry-After hint attached to every
// retryable rejection: 503s (shutting down, recovering) and the
// decompose-in-flight conflict. One second keeps a polling client
// snappy while a recovery or decomposition finishes; clients are free
// to back off further on repeated rejections.
const retryAfterSeconds = 1

// writeError renders err as the error envelope. Retryable rejections
// additionally carry a Retry-After header.
func writeError(w http.ResponseWriter, err error) {
	code, status := classify(err)
	if status == http.StatusServiceUnavailable || code == CodeDecomposeBusy {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	writeV1Error(w, status, errorPayload{Code: code, Message: err.Error(), Details: errorDetails(err)})
}

// writeV1Error emits a structured envelope through the pooled
// non-escaping encoder.
func writeV1Error(w http.ResponseWriter, status int, p errorPayload) {
	eb := getEnc()
	defer putEnc(eb)
	_ = eb.enc.Encode(v1ErrorBody{Error: p})
	setJSONContentType(w)
	w.WriteHeader(status)
	_, _ = w.Write(eb.buf.Bytes())
}
