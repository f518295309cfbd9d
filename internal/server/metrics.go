package server

import (
	"bytes"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

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

func newMetrics() *metrics {
	return &metrics{start: time.Now()}
}

// handleMetrics serves GET /v1/metrics (alias /metrics), the Prometheus
// text exposition. The method check happens in the route wrapper (api.go).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.met
	// Render the whole exposition into a buffer so the response goes out in
	// one checked write instead of ~40 unchecked ones.
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "bwaserve_uptime_seconds %.3f\n", time.Since(m.start).Seconds())
	fmt.Fprintf(&buf, "bwaserve_workers %d\n", s.sched.Threads())
	fmt.Fprintf(&buf, "bwaserve_batch_size %d\n", s.cfg.BatchSize)
	fmt.Fprintf(&buf, "bwaserve_index_mmap %d\n", boolGauge(s.idxInfo.Mmap))
	fmt.Fprintf(&buf, "bwaserve_index_load_seconds %.6f\n", s.idxInfo.LoadTime.Seconds())
	fmt.Fprintf(&buf, "bwaserve_index_resident_bytes %d\n", s.idxInfo.ResidentBytes)
	if s.idxInfo.Source != "" {
		fmt.Fprintf(&buf, "bwaserve_index_source{source=%q} 1\n", s.idxInfo.Source)
	}
	m.WriteMetrics(&buf, "bwaserve", RejectReason{"queue_full", m.rejectedFull.Load()})
	fmt.Fprintf(&buf, "bwaserve_requests_cancelled_total %d\n", m.requestsCancelled.Load())
	fmt.Fprintf(&buf, "bwaserve_reads_dropped_total %d\n", m.readsDropped.Load())
	fmt.Fprintf(&buf, "bwaserve_reads_inflight %d\n", s.adm.InFlight())
	fmt.Fprintf(&buf, "bwaserve_batches_total %d\n", m.batches.Load())
	fmt.Fprintf(&buf, "bwaserve_cache_enabled %d\n", boolGauge(s.cache != nil))
	if s.cache != nil {
		cs := s.cache.Stats()
		fmt.Fprintf(&buf, "bwaserve_cache_hits_total %d\n", cs.Hits)
		fmt.Fprintf(&buf, "bwaserve_cache_misses_total %d\n", cs.Misses)
		fmt.Fprintf(&buf, "bwaserve_cache_coalesced_total %d\n", cs.Coalesced)
		fmt.Fprintf(&buf, "bwaserve_cache_evictions_total %d\n", cs.Evictions)
		fmt.Fprintf(&buf, "bwaserve_cache_entries %d\n", cs.Entries)
		fmt.Fprintf(&buf, "bwaserve_cache_resident_bytes %d\n", cs.Bytes)
		fmt.Fprintf(&buf, "bwaserve_cache_capacity_bytes %d\n", cs.Capacity)
	}
	clock := s.sched.Clock()
	clock.WriteMetrics(&buf, "bwaserve")
	// Latency histograms (request path, queue waits, per-stage kernel time)
	// and Go runtime health gauges — see internal/obs and obs.go.
	s.hists.write(&buf, s.sched)
	obs.WriteRuntimeMetrics(&buf, "bwaserve")

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if _, err := w.Write(buf.Bytes()); err != nil {
		return // scraper went away mid-response; nothing to salvage
	}
}

// boolGauge renders a flag as a 0/1 Prometheus gauge value.
func boolGauge(b bool) int {
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
