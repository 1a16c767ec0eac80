package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/obs"
)

// Error is the unified envelope every 4xx/5xx answer carries, on the
// replica and the gateway alike. Message is human-readable; Code is the
// stable machine vocabulary clients branch on; TraceID correlates the
// failure against /tracez when the request was traced.
type Error struct {
	Message string `json:"error"`
	Code    string `json:"code"`
	TraceID string `json:"trace_id,omitempty"`
}

// Error implements the error interface, so a parsed envelope can travel
// as a Go error (the extraction client relies on this).
func (e Error) Error() string {
	if e.TraceID != "" {
		return fmt.Sprintf("%s: %s (trace %s)", e.Code, e.Message, e.TraceID)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Error codes. One code means one thing across the whole fleet; servers
// must not invent strings outside this vocabulary.
const (
	// CodeBadRequest covers malformed bodies and invalid field
	// combinations (400).
	CodeBadRequest = "bad_request"
	// CodeUnsupportedAPI rejects a request pinning an "api" version the
	// server does not speak (400).
	CodeUnsupportedAPI = "unsupported_api"
	// CodeNotFound covers unknown models and unknown model operations
	// (404).
	CodeNotFound = "not_found"
	// CodeTooLarge rejects a request body over MaxRequestBody (413).
	CodeTooLarge = "too_large"
	// CodeOverCapacity is backpressure: the request queue (replica) or
	// every routing candidate (gateway) is saturated (429/503).
	CodeOverCapacity = "over_capacity"
	// CodeBudgetExhausted rejects a client that spent its per-model query
	// budget — the anti-extraction defense (429).
	CodeBudgetExhausted = "budget_exhausted"
	// CodeUnavailable covers draining/closed engines and an empty routing
	// ring (503).
	CodeUnavailable = "unavailable"
	// CodeNotImplemented marks an endpoint whose prerequisite is not
	// configured, e.g. :load without an artifact store (501).
	CodeNotImplemented = "not_implemented"
	// CodeBadGateway is a gateway-synthesized failure: every proxied
	// attempt died at the transport level (502).
	CodeBadGateway = "bad_gateway"
	// CodeInternal is an unexpected server-side failure (500).
	CodeInternal = "internal"
)

// MaxRequestBody caps the gateway's predict bodies and every body a
// replica reads (8 MiB is ~1000 CIFAR-sized samples as JSON).
const MaxRequestBody = 8 << 20

// CodeForStatus maps an HTTP status to the default code for call sites
// that have nothing more specific to say.
func CodeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusRequestEntityTooLarge:
		return CodeTooLarge
	case http.StatusTooManyRequests:
		return CodeOverCapacity
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	case http.StatusNotImplemented:
		return CodeNotImplemented
	case http.StatusBadGateway:
		return CodeBadGateway
	default:
		return CodeInternal
	}
}

// WriteJSON writes v as the JSON body of a response with the given
// status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError writes the unified error envelope. An empty code falls back
// to CodeForStatus; traceID may be empty (the field is then omitted).
// Callers that traced the request set the trace response header
// themselves — this helper owns only the body.
func WriteError(w http.ResponseWriter, status int, code, traceID, format string, args ...any) {
	if code == "" {
		code = CodeForStatus(status)
	}
	WriteJSON(w, status, Error{Message: fmt.Sprintf(format, args...), Code: code, TraceID: traceID})
}

// TooLarge reports whether err is a body read cut off by
// http.MaxBytesReader.
func TooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// WriteBodyError answers a request whose body failed to read or decode:
// 400, or 413 when the body went over limit bytes. The 413 carries a trace
// ID (the caller's X-Dac-Trace, else a fresh one) in the envelope and the
// header, so an oversize request can be quoted even on untraced routes.
func WriteBodyError(w http.ResponseWriter, r *http.Request, err error, limit int64) {
	if !TooLarge(err) {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "", "bad request body: %v", err)
		return
	}
	id, _, _ := obs.ParseTraceHeader(r.Header.Get(obs.HeaderTrace))
	if id.IsZero() {
		id = obs.NewTraceID()
	}
	w.Header().Set(obs.HeaderTrace, id.String())
	WriteError(w, http.StatusRequestEntityTooLarge, CodeTooLarge, id.String(), "request body over %d bytes", limit)
}

// ParseError decodes an error envelope from a response body. It fails
// when the body is not an envelope (no "error" message), so callers can
// distinguish our errors from proxies' text pages.
func ParseError(body []byte) (Error, error) {
	var e Error
	if err := json.Unmarshal(body, &e); err != nil {
		return Error{}, fmt.Errorf("api: not an error envelope: %w", err)
	}
	if e.Message == "" {
		return Error{}, fmt.Errorf("api: not an error envelope: %q", body)
	}
	return e, nil
}
