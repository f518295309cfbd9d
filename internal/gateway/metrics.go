package gateway

import (
	"bytes"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// gwMetrics aggregates the gateway-level counters exposed on /v1/metrics.
// Everything is the routing-plane view: what came in, where it went, what
// spilled or retried, what went back out. Names carry the bwagate_ prefix
// so a scrape distinguishes tiers; the bwagate_request_seconds histogram
// and bwagate_go_* runtime gauges match the shapes the soak harness (and
// any dashboard built for bwaserve) already parses.
type gwMetrics struct {
	server.RequestCounters // the request counters both tiers share

	start time.Time

	spills     atomic.Int64 // assignments moved past the ring owner (bounded load)
	retries    atomic.Int64 // partition re-dispatches after upstream failure
	noUpstream atomic.Int64 // requests failed with no healthy replica

	reqSingle obs.Histogram // end-to-end handler time, POST /v1/align
	reqPaired obs.Histogram // end-to-end handler time, POST /v1/align/paired
	ttfb      obs.Histogram // request start -> first merged byte
}

func newGwMetrics() *gwMetrics {
	return &gwMetrics{start: time.Now()}
}

// handleMetrics serves GET /v1/metrics (alias /metrics): the gateway's
// Prometheus text exposition, including per-replica routing state.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := g.met
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "bwagate_uptime_seconds %.3f\n", time.Since(m.start).Seconds())
	fmt.Fprintf(&buf, "bwagate_replicas %d\n", len(g.replicas))
	fmt.Fprintf(&buf, "bwagate_replicas_up %d\n", g.healthyCount())
	m.WriteMetrics(&buf, "bwagate", server.RejectReason{Reason: "no_upstream", Count: m.noUpstream.Load()})
	fmt.Fprintf(&buf, "bwagate_spills_total %d\n", m.spills.Load())
	fmt.Fprintf(&buf, "bwagate_retries_total %d\n", m.retries.Load())
	occ := g.ring.occupancy()
	for i, rep := range g.replicas {
		fmt.Fprintf(&buf, "bwagate_replica_state{replica=%q,state=%q} 1\n", rep.url, stateName(rep.State()))
		fmt.Fprintf(&buf, "bwagate_replica_inflight_reads{replica=%q} %d\n", rep.url, rep.inflight.Load())
		fmt.Fprintf(&buf, "bwagate_replica_assigned_total{replica=%q} %d\n", rep.url, rep.assigned.Load())
		fmt.Fprintf(&buf, "bwagate_replica_spilled_to_total{replica=%q} %d\n", rep.url, rep.spilledTo.Load())
		fmt.Fprintf(&buf, "bwagate_replica_passive_failures_total{replica=%q} %d\n", rep.url, rep.passiveFails.Load())
		fmt.Fprintf(&buf, "bwagate_replica_probe_failures_total{replica=%q} %d\n", rep.url, rep.probeFails.Load())
		fmt.Fprintf(&buf, "bwagate_ring_points{replica=%q} %d\n", rep.url, occ[i])
	}
	writeHist := func(h *obs.Histogram, name, labels string) {
		// Writes into the local buffer; the single checked write is below.
		_ = h.Write(&buf, name, labels)
	}
	writeHist(&m.reqSingle, "bwagate_request_seconds", `kind="single"`)
	writeHist(&m.reqPaired, "bwagate_request_seconds", `kind="paired"`)
	writeHist(&m.ttfb, "bwagate_ttfb_seconds", "")
	for _, rep := range g.replicas {
		writeHist(&rep.upstream, "bwagate_upstream_seconds", fmt.Sprintf("replica=%q", rep.url))
	}
	obs.WriteRuntimeMetrics(&buf, "bwagate")

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if _, err := w.Write(buf.Bytes()); err != nil {
		return // scraper went away mid-response; nothing to salvage
	}
}

// handleHealthz serves GET /v1/healthz (alias /healthz): pure liveness for
// the gateway process itself, plus the replica-fleet summary a human or
// probe wants at a glance. Always 200 — readiness is /v1/readyz.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if g.adm.Draining() {
		status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// The probe body is best-effort once the status code is out.
	_, _ = fmt.Fprintf(w, `{"status":%q,"uptime_seconds":%.3f,"replicas":%d,"replicas_up":%d}`+"\n",
		status, time.Since(g.met.start).Seconds(), len(g.replicas), g.healthyCount())
}

// handleReadyz serves GET /v1/readyz: 200 while the gateway can route new
// work (not draining, at least one healthy replica), 503 otherwise — the
// same signal shape a replica exposes, so load balancers treat the tiers
// identically.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status, code := "ready", http.StatusOK
	switch {
	case g.adm.Draining():
		status, code = "draining", http.StatusServiceUnavailable
	case g.healthyCount() == 0:
		status, code = "unavailable", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// The probe body is best-effort once the status code is out.
	_, _ = fmt.Fprintf(w, `{"status":%q,"replicas_up":%d}`+"\n", status, g.healthyCount())
}
