package server

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/counters"
	"repro/internal/obs"
)

// metrics aggregates the server-level counters exposed on /metrics: the
// request counters both tiers share plus the replica's own. Stage timings
// come from the scheduler's stage histograms and cache counters from
// resultCache.Stats (cache.go); everything here is the request-plane view (what
// came in, what was shed, what went out). Every field is documented in
// README.md's /metrics reference table — keep the two in sync.
type metrics struct {
	start time.Time
	RequestCounters

	rejectedFull      atomic.Int64 // 429: admission budget exceeded
	batches           atomic.Int64 // scheduler tasks submitted for single-end reads
	requestsCancelled atomic.Int64 // admitted requests whose context ended first
	readsDropped      atomic.Int64 // reads of cancelled requests that never produced SAM output
}

// handleMetrics serves GET /v1/metrics (alias /metrics), the Prometheus
// text exposition. The method check happens in the route wrapper (api.go).
// Names here are wire contract: README.md's /metrics reference table and
// TestMetricsREADMEDocDrift list the same families.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m, h := s.met, s.hists
	var mw obs.MetricsWriter
	mw.Gauge("bwaserve_uptime_seconds", time.Since(m.start).Seconds())
	mw.Gauge("bwaserve_workers", float64(s.sched.Threads()))
	mw.Gauge("bwaserve_batch_size", float64(s.cfg.BatchSize))
	mw.Gauge("bwaserve_index_mmap", boolGauge(s.idxInfo.Mmap))
	mw.Gauge("bwaserve_index_load_seconds", s.idxInfo.LoadTime.Seconds())
	mw.Gauge("bwaserve_index_resident_bytes", float64(s.idxInfo.ResidentBytes))
	if s.idxInfo.Source != "" {
		mw.Gauge("bwaserve_index_source", 1, "source", s.idxInfo.Source)
	}
	m.Expose(&mw, "bwaserve", "queue_full", m.rejectedFull.Load())
	mw.Counter("bwaserve_requests_cancelled_total", float64(m.requestsCancelled.Load()))
	mw.Counter("bwaserve_reads_dropped_total", float64(m.readsDropped.Load()))
	mw.Gauge("bwaserve_reads_inflight", float64(s.adm.InFlight()))
	mw.Counter("bwaserve_batches_total", float64(m.batches.Load()))
	mw.Gauge("bwaserve_cache_enabled", boolGauge(s.cache != nil))
	if s.cache != nil {
		cs := s.cache.Stats()
		mw.Counter("bwaserve_cache_hits_total", float64(cs.Hits))
		mw.Counter("bwaserve_cache_misses_total", float64(cs.Misses))
		mw.Counter("bwaserve_cache_coalesced_total", float64(cs.Coalesced))
		mw.Counter("bwaserve_cache_evictions_total", float64(cs.Evictions))
		mw.Gauge("bwaserve_cache_entries", float64(cs.Entries))
		mw.Gauge("bwaserve_cache_resident_bytes", float64(cs.Bytes))
		mw.Gauge("bwaserve_cache_capacity_bytes", float64(cs.Capacity))
	}
	clock := s.sched.Clock() // the sums of the stage_task_seconds histograms below
	for _, st := range counters.Stages() {
		mw.Counter("bwaserve_stage_seconds", clock.T[st].Seconds(), "stage", st.String())
	}
	mw.Counter("bwaserve_stage_seconds_total", clock.Total().Seconds())
	for i, req := range []*obs.Histogram{&h.reqSingle, &h.reqPaired, &h.reqOther} {
		mw.Histogram("bwaserve_request_seconds", req, "kind", [...]string{"single", "paired", "other"}[i])
	}
	mw.Histogram("bwaserve_admission_wait_seconds", &h.admissionWait)
	mw.Histogram("bwaserve_cache_lookup_seconds", &h.cacheLookup)
	mw.Histogram("bwaserve_queue_wait_seconds", s.sched.QueueWait())
	mw.Histogram("bwaserve_ttfb_seconds", &h.ttfb)
	for _, st := range counters.Stages() {
		mw.Histogram("bwaserve_stage_task_seconds", s.sched.StageTime(st), "stage", st.String())
	}
	mw.Runtime("bwaserve")
	mw.Serve(w)
}

// boolGauge renders a flag as a 0/1 Prometheus gauge value.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// handleHealthz serves GET /v1/healthz (alias /healthz): pure liveness —
// always 200 while the process can answer at all, even mid-drain (the body
// still reports "draining" for humans) — plus the numbers an orchestrator's
// probe wants at a glance. Readiness (should this replica receive new
// traffic?) is /v1/readyz. The method check happens in the route wrapper
// (api.go).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining() {
		status = "draining"
	}
	ref := s.sched.Aligner().Ref
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// The probe body is best-effort once the status code is out.
	_, _ = fmt.Fprintf(w,
		`{"status":%q,"uptime_seconds":%.3f,"reads_inflight":%d,"workers":%d,"contigs":%d,"reference_bp":%d}`+"\n",
		status, time.Since(s.met.start).Seconds(), s.adm.InFlight(),
		s.sched.Threads(), len(ref.Contigs), ref.Lpac())
}

// handleReadyz serves GET /v1/readyz, the readiness signal a load balancer
// or the bwagate health gate keys on: 200 {"status":"ready"} while the
// server accepts new work, 503 {"status":"draining"} from the moment
// Shutdown begins — so a gateway stops routing to a draining replica while
// its in-flight streams finish, and distinguishes "draining" (503 with a
// body) from "dead" (connection refused).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status, code := "ready", http.StatusOK
	if s.draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// The probe body is best-effort once the status code is out.
	_, _ = fmt.Fprintf(w, `{"status":%q,"reads_inflight":%d}`+"\n", status, s.adm.InFlight())
}
