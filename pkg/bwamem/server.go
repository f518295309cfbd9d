package bwamem

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// ServerConfig tunes one deployment of the long-running alignment server.
// Zero values resolve to the documented defaults; DefaultServerConfig is
// the recommended starting point. Scoring comes from the Aligner handed to
// NewServer, not from here.
type ServerConfig struct {
	// Threads is the worker-pool size the server schedules batches over.
	// 0 means runtime.NumCPU.
	Threads int
	// BatchSize is the number of reads handed to one worker task (the unit
	// of dispatch; it does not affect output). 0 means 512.
	BatchSize int

	// MaxInFlightReads caps the reads admitted (queued or executing)
	// across all requests; a request that would exceed it is rejected with
	// 429. 0 means 65536.
	MaxInFlightReads int
	// MaxReadsPerRequest caps a single request's read count (413 beyond).
	// 0 means MaxInFlightReads.
	MaxReadsPerRequest int
	// MaxReadLen caps a single read's length in bases (413 beyond).
	// 0 means 65536.
	MaxReadLen int

	// RequestTimeout bounds one request's alignment work; when it (or the
	// client's disconnect) ends the request context, unstarted batches are
	// dropped. 0 means no server-imposed deadline.
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown's wait for in-flight requests.
	// 0 means 30s.
	DrainTimeout time.Duration

	// CacheEnabled turns on the sharded single-end result cache: a read
	// whose sequence is resident, or repeats an earlier read of the same
	// request, is served from those alignment regions, re-rendered per
	// read so output stays byte-identical. Paired requests bypass it.
	CacheEnabled bool
	// CacheBytes is the result cache's total capacity. 0 means 256 MiB.
	CacheBytes int64

	// DebugRequestTraces sizes the per-request trace ring served by
	// GET /v1/debug/requests (the N most recent and N slowest request
	// timelines, with per-phase timings). 0, the default, disables the
	// endpoint (it answers 404).
	DebugRequestTraces int
}

// DefaultServerConfig returns the deployment defaults (result cache on,
// NumCPU workers resolved at server start).
func DefaultServerConfig() ServerConfig {
	return fromCoreServerConfig(core.DefaultServerConfig())
}

func (c ServerConfig) toCore() core.ServerConfig {
	return core.ServerConfig{
		Threads:            c.Threads,
		BatchSize:          c.BatchSize,
		MaxInFlightReads:   c.MaxInFlightReads,
		MaxReadsPerRequest: c.MaxReadsPerRequest,
		MaxReadLen:         c.MaxReadLen,
		RequestTimeout:     c.RequestTimeout,
		DrainTimeout:       c.DrainTimeout,
		CacheEnabled:       c.CacheEnabled,
		CacheBytes:         c.CacheBytes,
		DebugRequestTraces: c.DebugRequestTraces,
	}
}

func fromCoreServerConfig(c core.ServerConfig) ServerConfig {
	return ServerConfig{
		Threads:            c.Threads,
		BatchSize:          c.BatchSize,
		MaxInFlightReads:   c.MaxInFlightReads,
		MaxReadsPerRequest: c.MaxReadsPerRequest,
		MaxReadLen:         c.MaxReadLen,
		RequestTimeout:     c.RequestTimeout,
		DrainTimeout:       c.DrainTimeout,
		CacheEnabled:       c.CacheEnabled,
		CacheBytes:         c.CacheBytes,
		DebugRequestTraces: c.DebugRequestTraces,
	}
}

// Server is the long-lived alignment service over one resident index,
// speaking the versioned /v1 HTTP API (plus the unversioned legacy
// aliases): POST /v1/align, POST /v1/align/paired, GET /v1/healthz,
// GET /v1/metrics. Every response carries X-Request-Id and every error is
// a typed JSON envelope {"code","message","request_id"}; pkg/bwaclient is
// the matching client. Construct with NewServer, expose via Handler or
// ServeHTTP, stop with Shutdown (graceful drain) or Close.
type Server struct {
	srv *server.Server
}

// NewServer wraps a's index and options in the alignment service.
// The server schedules its own worker pool (cfg.Threads); it shares a's
// index and options but not the pool a's direct Align calls use, so
// embedding both in one process is safe.
func NewServer(a *Aligner, cfg ServerConfig) (*Server, error) {
	srv, err := server.New(a.core, cfg.toCore())
	if err != nil {
		return nil, err
	}
	info := a.idx.info
	if info.ResidentBytes == 0 {
		info.ResidentBytes = a.core.IndexFootprint()
	}
	srv.SetIndexInfo(server.IndexInfo(info))
	return &Server{srv: srv}, nil
}

// Config returns the resolved deployment configuration.
func (s *Server) Config() ServerConfig {
	return fromCoreServerConfig(s.srv.Config())
}

// Handler returns the HTTP entry point (also available as s itself).
func (s *Server) Handler() http.Handler { return s.srv.Handler() }

// ServeHTTP makes Server an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.srv.ServeHTTP(w, r)
}

// SetLogOutput installs the structured request log: one "request" event
// per align request (request_id, route, status, reads, duration_seconds,
// bytes_out) plus "request cancelled" warnings, written to w through
// log/slog in the given format — "json" (slog.NewJSONHandler: one JSON
// object per line, keyed time, level, msg, then the attributes) or "text"
// (slog.NewTextHandler: the same keys as key=value pairs). A nil w disables
// structured logging, the default. Safe to call concurrently with serving.
func (s *Server) SetLogOutput(w io.Writer, format string) error {
	if w == nil {
		s.srv.SetLogger(nil)
		return nil
	}
	var h slog.Handler
	switch format {
	case "json":
		h = slog.NewJSONHandler(w, nil)
	case "text":
		h = slog.NewTextHandler(w, nil)
	default:
		return fmt.Errorf("bwamem: unknown log format %q (json or text)", format)
	}
	s.srv.SetLogger(slog.New(h))
	return nil
}

// Shutdown drains gracefully: new work is rejected with 503 while
// admitted requests run to completion, then the worker pool stops. If
// in-flight work outlives ctx's deadline (or DrainTimeout when ctx has
// none) an error is returned and Shutdown may be called again.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// Close is Shutdown with the configured drain timeout.
func (s *Server) Close() error { return s.srv.Close() }
