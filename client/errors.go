package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// parseRetryAfter reads a Retry-After header in its delay-seconds
// form (the only form the server emits); anything unparseable or
// negative reads as "no hint".
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Stable v1 error codes, mirrored from the server contract. Branch on
// these (or the Is* helpers) instead of matching message strings.
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

	// Analytics codes.
	CodeTipNotComputed      = "tip_not_computed"
	CodeEnumerationTooLarge = "enumeration_too_large"
	CodeVertexNotFound      = "vertex_not_found"
)

// ErrMalformedResponse marks a delivered 2xx response whose body did
// not decode into the typed v1 contract — distinguishable (errors.Is)
// from transport failures, where no response was received at all.
var ErrMalformedResponse = errors.New("client: malformed response body")

// ErrorInfo is the inner object of the v1 error envelope, also used
// for per-item batch failures.
type ErrorInfo struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

// APIError is a non-2xx response decoded into the v1 error model.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
	Details    map[string]any
	// RetryAfter is the server's Retry-After hint (0 when the response
	// carried none). The retry loop honours it for idempotent requests;
	// callers handling write rejections can use it to pace their own
	// retries.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("client: %s (%s, http %d)", e.Message, e.Code, e.StatusCode)
	}
	return fmt.Sprintf("client: %s (http %d)", e.Message, e.StatusCode)
}

// decodeAPIError parses a failure body: the v1 envelope
// {"error": {code, message, details}}, falling back to the raw body so
// nothing is lost.
func decodeAPIError(status int, body []byte) *APIError {
	var envelope struct {
		Error ErrorInfo `json:"error"`
	}
	out := &APIError{StatusCode: status}
	if err := json.Unmarshal(body, &envelope); err == nil && envelope.Error.Message != "" {
		out.Code, out.Message, out.Details = envelope.Error.Code, envelope.Error.Message, envelope.Error.Details
		return out
	}
	out.Message = strings.TrimSpace(string(body))
	if out.Message == "" {
		out.Message = http.StatusText(status)
	}
	return out
}

// IsNotFound reports whether err is an API error for an absent object:
// unknown dataset, absent edge, or a vertex outside the k-bitruss.
func IsNotFound(err error) bool {
	return hasStatus(err, http.StatusNotFound)
}

// IsConflict reports whether err is an API error for a state conflict:
// duplicate dataset, decomposition in flight, or querying φ before a
// decomposition exists.
func IsConflict(err error) bool {
	return hasStatus(err, http.StatusConflict)
}

// IsUnavailable reports whether err is a 503: the server draining
// after shutdown began, or a dataset still recovering from its durable
// state. Idempotent calls retry this automatically (honouring the
// server's Retry-After hint); seeing it from a mutation means the
// write was rejected.
func IsUnavailable(err error) bool {
	return hasStatus(err, http.StatusServiceUnavailable)
}

// IsRecovering reports whether err is the dataset rebuilding from its
// durable state after a restart; the request can be retried once
// recovery finishes.
func IsRecovering(err error) bool {
	return HasCode(err, CodeRecovering)
}

// HasCode reports whether err is an *APIError carrying the given
// stable code.
func HasCode(err error, code string) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == code
}

func hasStatus(err error, status int) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == status
}
