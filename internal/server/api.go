package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"mime"
	"net/http"
	"strings"
)

// This file is the wire-contract layer of the versioned /v1 HTTP API, the
// request-plane shell both tiers run: the replica (Server) and the gateway
// (internal/gateway) mount their handlers through Mount, so route table,
// request-ID plumbing, method enforcement, the 404 catch-all and the typed
// JSON error envelope are written once. Handlers never call http.Error
// directly; they answer errors with WriteError.
//
// Contract summary (kept in sync with README.md's API section and the
// golden route/API-surface test in pkg/bwamem):
//
//   - Canonical routes live under /v1/; the original unversioned paths are
//     permanent aliases with identical behavior.
//   - Every response carries X-Request-Id (client-supplied when valid,
//     generated otherwise).
//   - Every error response is JSON: {"code","message","request_id"} with a
//     machine-readable code from the list below, so clients and future
//     non-HTTP backends (gRPC, shard fan-out) can switch on the code
//     instead of parsing prose.
//   - Align routes are POST-only (405 otherwise, with Allow) and accept
//     exactly two body families: FASTQ (text/plain, text/x-fastq,
//     application/x-fastq, application/fastq, application/octet-stream, or
//     no Content-Type) and JSON (application/json or any *+json). Anything
//     else is 415, never sniffed.

// Error codes of the /v1 wire contract. pkg/bwaclient mirrors these as
// exported constants; a test cross-checks the two lists.
const (
	codeBadRequest       = "bad_request"            // 400: malformed body or read
	codeTooLarge         = "too_large"              // 413: body/read-count/read-length policy
	codeMethodNotAllowed = "method_not_allowed"     // 405
	codeUnsupportedMedia = "unsupported_media_type" // 415
	codeOverloaded       = "overloaded"             // 429: admission budget exhausted
	codeDraining         = "draining"               // 503: graceful shutdown in progress
	codeDeadlineExceeded = "deadline_exceeded"      // 504: request deadline hit before output
	codeNotFound         = "not_found"              // 404: unknown route
)

// errorEnvelope is the wire form of every error response.
type errorEnvelope struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id"`
}

// apiRoute is one row of the route table: the single allowed method, the
// versioned path, and its legacy alias.
type apiRoute struct {
	Method string
	Path   string // canonical versioned path
	Legacy string // unversioned alias ("" = none)
}

// routeTable is the complete wire surface. Adding, removing, or changing a
// row is an API change: update README.md and the golden route test.
var routeTable = []apiRoute{
	{http.MethodPost, "/v1/align", "/align"},
	{http.MethodPost, "/v1/align/paired", "/align/paired"},
	{http.MethodGet, "/v1/healthz", "/healthz"},
	{http.MethodGet, "/v1/readyz", ""},
	{http.MethodGet, "/v1/metrics", "/metrics"},
	{http.MethodGet, "/v1/debug/requests", ""},
}

// Routes lists the wire surface as "METHOD path (alias legacy)" strings,
// for documentation and the golden route-table test.
func Routes() []string {
	out := make([]string, 0, len(routeTable))
	for _, rt := range routeTable {
		s := rt.Method + " " + rt.Path
		if rt.Legacy != "" {
			s += " (alias " + rt.Legacy + ")"
		}
		out = append(out, s)
	}
	return out
}

// Mount installs one tier's handlers, keyed by canonical path, on mux: each
// at its path and legacy alias behind request-ID assignment, the tier's
// wrap hook (nil for none), and the single-method check (405 with Allow,
// counted in c.Bad). wrap receives the canonical path whichever alias was
// hit. Routes the tier does not serve and unknown paths get the 404
// envelope.
func Mount(mux *http.ServeMux, handlers map[string]http.HandlerFunc, c *RequestCounters,
	wrap func(route string, next http.HandlerFunc) http.HandlerFunc) {
	served := 0
	for _, rt := range routeTable {
		h, method := handlers[rt.Path], rt.Method
		if h == nil {
			continue
		}
		served++
		gated := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != method {
				c.Bad.Add(1)
				w.Header().Set("Allow", method)
				WriteError(w, r, http.StatusMethodNotAllowed, codeMethodNotAllowed,
					fmt.Sprintf("method %s not allowed (use %s)", r.Method, method))
				return
			}
			h(w, r)
		})
		if wrap != nil {
			gated = wrap(rt.Path, gated)
		}
		gated = withRequestID(gated)
		mux.HandleFunc(rt.Path, gated)
		if rt.Legacy != "" {
			mux.HandleFunc(rt.Legacy, gated)
		}
	}
	if served != len(handlers) {
		panic("server: Mount given a handler for a path outside the route table")
	}
	mux.HandleFunc("/", withRequestID(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, r, http.StatusNotFound, codeNotFound,
			fmt.Sprintf("no such route %s (see /v1/align, /v1/align/paired, /v1/healthz, /v1/metrics)", r.URL.Path))
	}))
}

// ctxKey keys request-plane values in a request context.
type ctxKey int

const requestIDKey ctxKey = iota

// withRequestID resolves the request's ID — the client's X-Request-Id when
// it is a sane header value, a fresh random one otherwise — exposes it as
// the X-Request-Id response header, and stores it in the request context
// for error envelopes, logs, and upstream calls.
func withRequestID(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if !validRequestID(id) {
			id = newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		next(w, r.WithContext(context.WithValue(r.Context(), requestIDKey, id)))
	}
}

// RequestID returns the ID Mount assigned to the request ("" outside one).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// validRequestID accepts client-supplied IDs that are short, printable,
// and quote-free — safe to echo into headers, JSON, and logs.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' || id[i] == '"' || id[i] == '\\' {
			return false
		}
	}
	return true
}

// newRequestID returns a fresh 16-hex-char random ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// math-free fallback: rand.Read on supported platforms never fails;
		// if it somehow does, a constant ID is still a valid (if useless) ID.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// WriteError writes the typed JSON error envelope carrying the request's
// ID. It must only be called before any response byte has gone out
// (handlers that stream guard on ordered.Writer.Started).
func WriteError(w http.ResponseWriter, r *http.Request, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding a flat struct of strings cannot fail; the write error (client
	// gone) has nowhere useful to go.
	_ = json.NewEncoder(w).Encode(errorEnvelope{Code: code, Message: message, RequestID: RequestID(r.Context())})
}

// alignBodyKind resolves the negotiated body family of an align request:
// JSON (application/json, *+json) or FASTQ (text/plain, the fastq media
// types, application/octet-stream, or no Content-Type at all). Any other
// Content-Type is an error — the caller maps it to 415 — instead of
// falling through to the FASTQ parser and producing a confusing 400.
func alignBodyKind(r *http.Request) (isJSON bool, err error) {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return false, nil
	}
	mt, _, perr := mime.ParseMediaType(ct)
	if perr != nil {
		return false, fmt.Errorf("unparseable Content-Type %q", ct)
	}
	switch {
	case mt == "application/json" || strings.HasSuffix(mt, "+json"):
		return true, nil
	case mt == "text/plain" || mt == "text/x-fastq" || mt == "application/x-fastq" ||
		mt == "application/fastq" || mt == "application/octet-stream":
		return false, nil
	}
	return false, fmt.Errorf("unsupported Content-Type %q (FASTQ bodies: text/plain, text/x-fastq, application/x-fastq; JSON bodies: application/json)", ct)
}
