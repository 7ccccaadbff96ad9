package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Error codes: the stable, machine-readable half of every non-200 response.
// Clients branch on the code; the message is for humans and may change.
const (
	// CodeUndecodableSpec: the request body is not valid JSON for the
	// endpoint's spec type (syntax error, wrong shape, or unknown fields —
	// spec decoding is strict so a typoed field name fails loudly instead of
	// silently meaning something else).
	CodeUndecodableSpec = "undecodable_spec"
	// CodeInvalidSpec: the body decoded but names an unrunnable simulation
	// (unknown benchmark or preset, zero measurement, slice bounds, ...).
	CodeInvalidSpec = "invalid_spec"
	// CodeNoStore: the endpoint needs a persistent store and the daemon
	// mounted none.
	CodeNoStore = "no_store"
	// CodeNotFound: the named entry does not exist.
	CodeNotFound = "not_found"
	// CodeDamagedEntry: the entry exists but failed validation (malformed id,
	// checksum mismatch, foreign schema); re-submitting the job rewrites it.
	CodeDamagedEntry = "damaged_entry"
)

// APIError is one decoded error response: the typed form Client returns so
// callers can branch on Code (and HTTP Status) instead of parsing messages.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Status  int    `json:"-"` // HTTP status the response carried
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serve: %s (%s)", e.Message, e.Code)
}

// errorEnvelope is the uniform wire shape of every error response:
// {"error": {"code": ..., "message": ...}}.
type errorEnvelope struct {
	Error APIError `json:"error"`
}

// writeError emits one error envelope. Every non-200 response of the API goes
// through here, so clients can rely on the shape regardless of endpoint.
func writeError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorEnvelope{Error: APIError{Code: code, Message: message}})
}

// StreamError reports a batch response stream that died mid-flight: the
// daemon accepted the batch and started streaming, then the connection was
// cut (truncation) or produced bytes that do not decode as events
// (corruption) before the final "done" event arrived. Everything resolved
// before the cut is real — those results were committed to the daemon's
// store as they were produced — so the caller sees a *runner.PartialError
// carrying a *StreamError as its cause, and only the unresolved jobs need
// resubmitting.
type StreamError struct {
	// Resolved counts the jobs whose "result" event arrived before the cut.
	Resolved int
	// Err is the underlying failure: a transport error, a decode error, or
	// nil-equivalent sentinel text when the stream simply ended early.
	Err error
}

func (e *StreamError) Error() string {
	return fmt.Sprintf("serve: result stream cut after %d events: %v", e.Resolved, e.Err)
}

func (e *StreamError) Unwrap() error { return e.Err }

// decodeError turns a non-200 response into an *APIError. Responses that do
// not carry the envelope (a proxy in the path, a pre-envelope daemon) degrade
// to a synthesized error with an empty code, so callers branching on codes
// treat them as unknown rather than misclassifying them.
func decodeError(resp *http.Response) *APIError {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		env.Error.Status = resp.StatusCode
		return &env.Error
	}
	msg := strings.TrimSpace(string(body))
	if msg == "" {
		msg = resp.Status
	}
	return &APIError{Message: msg, Status: resp.StatusCode}
}
