package server

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/obs"
)

// This file is the server's observability plane: the latency histograms
// exposed on /v1/metrics, the per-request span threaded through the
// handler path (Server-Timing header, trace ring), the response wrapper
// that captures status and bytes for access logs, and the flag-gated
// GET /v1/debug/requests endpoint. The recording layer itself lives in
// internal/obs; everything here is wiring.

// serverHists is the fixed set of latency histograms, one per stop along
// the request path. All recording is atomic (obs.Histogram); the struct is
// allocated once per Server and shared by every request. The worker pool's
// histograms (per-task queue wait and stage time) belong to the scheduler.
type serverHists struct {
	reqSingle obs.Histogram // end-to-end handler time, POST /v1/align
	reqPaired obs.Histogram // end-to-end handler time, POST /v1/align/paired
	reqOther  obs.Histogram // end-to-end handler time, everything else

	admissionWait obs.Histogram // time inside the admission gate (lock contention)
	cacheLookup   obs.Histogram // per-request result-cache classify pass
	ttfb          obs.Histogram // request start -> first response byte
}

// reqInfo is the per-request observability record threaded through the
// handler via the request context: identity for logs, the span accumulating
// the request's phase timeline, and the fields the handler fills in as it
// learns them (kind from the route, reads after parsing). kind and reads
// are only touched on the handler goroutine; the span is internally locked
// and may be marked from the streamer's writer goroutine.
type reqInfo struct {
	id    string
	route string // canonical route path ("" for the 404 catch-all)
	kind  string // "single", "paired", or "" for non-align routes
	reads int    // reads accepted for alignment (pairs count 2)
	span  *obs.Span
}

const reqInfoKey ctxKey = 1

// reqInfoFrom returns the request's observability record (nil outside an
// instrumented request, e.g. in tests that call handlers directly).
func reqInfoFrom(r *http.Request) *reqInfo {
	info, _ := r.Context().Value(reqInfoKey).(*reqInfo)
	return info
}

// Span returns the request's span (nil, which records nothing, for a nil
// record) so handlers can instrument unconditionally.
func (info *reqInfo) Span() *obs.Span {
	if info == nil {
		return nil
	}
	return info.span
}

// setReads records the request's accepted read count (no-op on nil).
func (info *reqInfo) setReads(n int) {
	if info != nil {
		info.reads = n
	}
}

// routeKind maps a canonical route to its request-histogram kind.
func routeKind(route string) string {
	switch route {
	case "/v1/align":
		return "single"
	case "/v1/align/paired":
		return "paired"
	}
	return ""
}

// statusWriter wraps the ResponseWriter to capture the committed status
// and body bytes for the access log and trace ring. It always implements
// http.Flusher (delegating when the underlying writer can flush) so the
// SAM streamer's flush detection keeps working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	flusher http.Flusher
	status  int
	bytes   int64
}

func newStatusWriter(w http.ResponseWriter) *statusWriter {
	sw := &statusWriter{ResponseWriter: w}
	if f, ok := w.(http.Flusher); ok {
		sw.flusher = f
	}
	return sw
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += int64(n)
	return n, err
}

func (sw *statusWriter) Flush() {
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
}

// observe is the replica's wrap hook for Mount: it opens the request's
// observability record (span, status capture) in the context and closes
// it out with observeRequest once the handler — method check included —
// returns. route is the canonical path, used for kind classification and
// logs regardless of which alias was hit.
func (s *Server) observe(route string, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		info := &reqInfo{id: RequestID(r.Context()), route: route, kind: routeKind(route), span: obs.NewSpan(time.Now())}
		sw := newStatusWriter(w)
		// Deferred so the request is recorded even when finishStream
		// aborts the connection via panic(http.ErrAbortHandler).
		defer s.observeRequest(sw, r, info)
		next(sw, r.WithContext(context.WithValue(r.Context(), reqInfoKey, info)))
	}
}

// observeRequest closes out one instrumented request: the end-to-end
// latency histogram, then for align routes only the trace ring and the
// structured access log (metric scrapes and health probes, one readyz a
// second behind a gateway, would drown both). Runs deferred from the route wrapper, so it records even
// when the handler aborts the connection mid-stream.
func (s *Server) observeRequest(sw *statusWriter, r *http.Request, info *reqInfo) {
	d := time.Since(info.span.Start())
	switch info.kind {
	case "single":
		s.hists.reqSingle.Observe(d)
	case "paired":
		s.hists.reqPaired.Observe(d)
	default:
		s.hists.reqOther.Observe(d)
	}
	if info.kind == "" {
		return
	}
	status := sw.status
	if status == 0 {
		status = http.StatusOK // handler wrote nothing; net/http will commit 200
	}
	s.ring.Add(obs.Trace{
		RequestID: info.id,
		Route:     info.route,
		Status:    status,
		Reads:     info.reads,
		BytesOut:  sw.bytes,
		Start:     info.span.Start(),
		Seconds:   d.Seconds(),
		Phases:    info.span.Phases(),
	})
	if l := s.logger.Load(); l != nil {
		l.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("request_id", info.id),
			slog.String("route", info.route),
			slog.Int("status", status),
			slog.Int("reads", info.reads),
			slog.Float64("duration_seconds", d.Seconds()),
			slog.Int64("bytes_out", sw.bytes),
		)
	}
}

// SetLogger installs the structured access/event logger. nil disables
// structured logging, the default. Safe to call concurrently with serving.
func (s *Server) SetLogger(l *slog.Logger) { s.logger.Store(l) }

// debugRequestsResponse is the wire form of GET /v1/debug/requests.
type debugRequestsResponse struct {
	Capacity int         `json:"capacity"`
	Recent   []obs.Trace `json:"recent"`
	Slowest  []obs.Trace `json:"slowest"`
}

// handleDebugRequests serves GET /v1/debug/requests: the N most recent and
// N slowest request timelines, for tail-latency investigations. The route
// is always registered (the wire surface is static) but answers 404 until
// the deployment opts in with ServerConfig.DebugRequestTraces > 0
// (bwaserve -debug-requests).
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if s.ring == nil {
		WriteError(w, r, http.StatusNotFound, codeNotFound,
			"request tracing is disabled (set DebugRequestTraces > 0 / bwaserve -debug-requests)")
		return
	}
	recent, slowest := s.ring.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(debugRequestsResponse{Capacity: s.ring.Capacity(), Recent: recent, Slowest: slowest})
}
