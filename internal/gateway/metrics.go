package gateway

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// gwMetrics aggregates the gateway-level counters exposed on /v1/metrics:
// the routing-plane view of what came in, where it went, what spilled or
// retried, and what went back out.
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

// handleMetrics serves GET /v1/metrics (alias /metrics): the gateway's
// Prometheus text exposition, including per-replica routing state. README's
// gateway metrics table and TestGatewayMetricsREADMEDocDrift list the same
// families.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := g.met
	var mw obs.MetricsWriter
	mw.Gauge("bwagate_uptime_seconds", time.Since(m.start).Seconds())
	mw.Gauge("bwagate_replicas", float64(len(g.replicas)))
	mw.Gauge("bwagate_replicas_up", float64(g.healthyCount()))
	m.Expose(&mw, "bwagate", "no_upstream", m.noUpstream.Load())
	mw.Counter("bwagate_spills_total", float64(m.spills.Load()))
	mw.Counter("bwagate_retries_total", float64(m.retries.Load()))
	occ := g.ring.occupancy()
	for i, rep := range g.replicas {
		mw.Gauge("bwagate_replica_state", 1, "replica", rep.url, "state", stateName(rep.State()))
		mw.Gauge("bwagate_replica_inflight_reads", float64(rep.inflight.Load()), "replica", rep.url)
		mw.Counter("bwagate_replica_assigned_total", float64(rep.assigned.Load()), "replica", rep.url)
		mw.Counter("bwagate_replica_spilled_to_total", float64(rep.spilledTo.Load()), "replica", rep.url)
		mw.Counter("bwagate_replica_passive_failures_total", float64(rep.passiveFails.Load()), "replica", rep.url)
		mw.Counter("bwagate_replica_probe_failures_total", float64(rep.probeFails.Load()), "replica", rep.url)
		mw.Gauge("bwagate_ring_points", float64(occ[i]), "replica", rep.url)
		mw.Histogram("bwagate_upstream_seconds", &rep.upstream, "replica", rep.url)
	}
	for i, req := range []*obs.Histogram{&m.reqSingle, &m.reqPaired} {
		mw.Histogram("bwagate_request_seconds", req, "kind", [...]string{"single", "paired"}[i])
	}
	mw.Histogram("bwagate_ttfb_seconds", &m.ttfb)
	mw.Runtime("bwagate")
	mw.Serve(w)
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
