// Package server is the long-lived alignment service layer: it loads the
// reference and FM-index once, keeps them resident, and serves alignment
// requests over HTTP by multiplexing them onto one shared worker pool
// (internal/pipeline.Scheduler).
//
// The request path is: HTTP handler → incremental body decode (per-read
// validation and the request read cap apply while the body streams in) →
// admission control (bounded in-flight reads, immediate 429 under
// overload) → result cache (single-end duplicates served from cached
// regions or from an earlier copy in the same request; internal/rescache)
// → the request's reads cut into scheduler tasks of at most BatchSize reads
// on the shared worker pool with per-worker reusable scratch → per-read
// SAM records streamed back to each caller in input order, as each read is
// formatted and immediately for cache hits. Responses are byte-identical
// to a one-shot pipeline.Run / RunPaired over the same reads, which is the
// subsystem's correctness contract and is enforced by tests. ARCHITECTURE.md (repo root) walks the
// whole path with a data-flow diagram.
//
// Every request's alignment work runs under its own context — the client's
// connection context bounded by ServerConfig.RequestTimeout. When it ends
// (disconnect or deadline), the request's tasks drop the reads they have
// not started, and the request's admission budget is released once its
// tasks have left the queue.
//
// Endpoints (canonical /v1 paths; the unversioned originals are permanent
// aliases — see api.go for the wire contract):
//
//	POST /v1/align          single-end reads (raw FASTQ, or JSON {"reads":[...]})
//	POST /v1/align/paired   pairs (interleaved FASTQ, or JSON {"reads1":[...],"reads2":[...]})
//	GET  /v1/healthz        liveness + load summary (JSON)
//	GET  /v1/metrics        Prometheus text: request counters + per-stage kernel seconds
//
// SAM responses include the @SQ/@PG header by default; ?header=0 returns
// records only. Every response carries X-Request-Id, and every error
// response is a typed JSON envelope {"code","message","request_id"}.
//
// The request plane is written once for both serving tiers: the gateway
// (internal/gateway) mounts its handlers through the same Mount shell
// (api.go: routes, aliases, request IDs, 405/404, WriteError), runs the
// same align intake and counters (wire.go: RequestCounters.Intake,
// WriteMetrics), admits and drains through the same Admission gate
// (queue.go, with an unbounded read budget) and starts its response with
// the same NewSAMStream. Only the read budget, the wrap hook and what
// happens after intake differ per tier; /v1/debug/requests is
// replica-only.
//
// # Concurrency contract
//
// A Server's exported surface (ServeHTTP, Handler, Config, Shutdown,
// Close) is safe for concurrent use; the HTTP library calls the handlers
// from one goroutine per request. Internally each layer has a narrower
// contract, stated on its type: admission is a mutex-guarded semaphore;
// ordered.Writer.Complete may be called from many workers but all socket
// writes happen on the request-owned writer goroutine; rescache is fully
// concurrent with per-shard locking. Emit callbacks run on
// pipeline-worker goroutines and must not block on the client — that is
// the streamer's job.
package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/rescache"
)

// Server is one alignment service instance over one resident index. Create
// with New, expose via Handler, stop with Shutdown (drains) or Close.
type Server struct {
	cfg       core.ServerConfig
	samHeader []byte // constant for the server's lifetime; built once
	sched     *pipeline.Scheduler
	adm       *Admission
	met       *metrics
	cache     *resultCache // single-end result cache; nil when disabled
	optFP     uint64       // option fingerprint for cache keys
	mux       *http.ServeMux
	idxInfo   IndexInfo // how the index was loaded; set before serving

	hists *serverHists   // latency histograms, shared by all requests (obs.go)
	ring  *obs.TraceRing // request-trace ring for /v1/debug/requests; nil when disabled

	logger atomic.Pointer[slog.Logger] // structured access/event logger; nil = off
	closed atomic.Bool
}

// New builds a Server over an already-constructed aligner (the index stays
// resident for the server's lifetime). cfg zero values resolve to
// defaults.
func New(aln *core.Aligner, cfg core.ServerConfig) (*Server, error) {
	if err := cfg.Normalize(runtime.NumCPU()); err != nil {
		return nil, err
	}
	sched := pipeline.NewScheduler(aln, cfg.Threads)
	s := &Server{
		cfg:       cfg,
		samHeader: []byte(aln.SAMHeader()),
		sched:     sched,
		adm:       NewAdmission(cfg.MaxInFlightReads),
		met:       newMetrics(),
		mux:       http.NewServeMux(),
		hists:     &serverHists{},
	}
	if cfg.DebugRequestTraces > 0 {
		s.ring = obs.NewTraceRing(cfg.DebugRequestTraces)
	}
	if cfg.CacheEnabled {
		s.cache = &resultCache{Cache: rescache.New(rescache.Config{Capacity: cfg.CacheBytes})}
		s.optFP = aln.Opts.Fingerprint()
	}
	Mount(s.mux, map[string]http.HandlerFunc{
		"/v1/align":          s.handleAlign,
		"/v1/align/paired":   s.handleAlignPaired,
		"/v1/healthz":        s.handleHealthz,
		"/v1/readyz":         s.handleReadyz,
		"/v1/metrics":        s.handleMetrics,
		"/v1/debug/requests": s.handleDebugRequests,
	}, &s.met.RequestCounters, s.observe)
	return s, nil
}

// IndexInfo describes how the resident index came to be, for /metrics:
// deployments watching a fleet want to see which processes mmap a shared
// page-cached index versus pay a private heap copy, and what start-up cost
// the load added.
type IndexInfo struct {
	// Source labels the load path: "v2-mmap", "v2-heap", "fasta-build",
	// "synthetic-build", ...
	Source string
	// Mmap is true when the index aliases a shared read-only file mapping.
	Mmap bool
	// LoadTime is the wall time from opening the index source to a ready
	// aligner (index build time, for sources built in memory).
	LoadTime time.Duration
	// ResidentBytes is the index data footprint: private heap bytes for a
	// heap load, or the mapped file size (file-backed, shared across
	// processes) for an mmap load.
	ResidentBytes int64
}

// SetIndexInfo records how the index was loaded. Call it once, before the
// server starts handling requests; it is not synchronized with handlers.
func (s *Server) SetIndexInfo(info IndexInfo) { s.idxInfo = info }

// Config returns the resolved deployment configuration.
func (s *Server) Config() core.ServerConfig { return s.cfg }

// Handler returns the HTTP entry point (also available as s itself).
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP makes Server an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// requestContext derives the per-request alignment context: the client's
// own context (so a disconnect cancels the request's queued work and frees
// its admission budget) bounded by cfg.RequestTimeout when one is set.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return r.Context(), func() {}
}

func (s *Server) draining() bool { return s.adm.Draining() }

// Shutdown drains gracefully: new work is rejected with 503 while admitted
// requests run to completion, then the worker pool stops. It returns an
// error if in-flight work outlives the context deadline (or
// cfg.DrainTimeout when the context has none); the pool is left running in
// that case so stragglers stay safe, and Shutdown may be called again.
func (s *Server) Shutdown(ctx context.Context) error {
	s.adm.SetDraining()
	start := time.Now()
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DrainTimeout)
		defer cancel()
	}
	if !s.adm.WaitIdle(ctx) {
		return fmt.Errorf("server: %d reads still in flight after waiting %v to drain",
			s.adm.InFlight(), time.Since(start).Round(time.Millisecond))
	}
	if s.closed.CompareAndSwap(false, true) {
		s.sched.Close()
	}
	return nil
}

// Close is Shutdown with the configured drain timeout.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Shutdown(ctx)
}
