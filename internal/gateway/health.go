package gateway

import (
	"context"
	"log/slog"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/pkg/bwaclient"
)

// Replica health states. The ring keeps every configured replica; these
// states only control whether new partitions are assigned to it.
//
//	stateUp       — serving; eligible for new assignments.
//	stateDraining — answered readyz with "draining": in-flight streams are
//	                allowed to finish but nothing new is routed to it.
//	stateDown     — probe or traffic failed at the transport level; skipped
//	                until a probe succeeds again.
const (
	stateUp int32 = iota
	stateDraining
	stateDown
)

// stateName renders a replica state for metrics and logs.
func stateName(s int32) string {
	switch s {
	case stateUp:
		return "up"
	case stateDraining:
		return "draining"
	default:
		return "down"
	}
}

// replica is one configured bwaserve backend: its client, its health
// state, and its share of the gateway's load accounting.
type replica struct {
	url    string
	client *bwaclient.Client
	probe  *bwaclient.Client // separate client with the probe timeout

	state      atomic.Int32
	failStreak atomic.Int32 // consecutive failed probes (prober-owned)
	inflight   atomic.Int64 // reads currently assigned (bounded-load input)

	upstream     obs.Histogram // upstream align call latency
	assigned     atomic.Int64  // partitions assigned
	spilledTo    atomic.Int64  // partitions received via bounded-load spill
	passiveFails atomic.Int64  // failures observed on align traffic
	probeFails   atomic.Int64  // failed readyz probes
}

// State returns the replica's current routing state.
func (r *replica) State() int32 { return r.state.Load() }

// reportFailure is the passive detector: an align call to the replica
// failed at the transport level (connect refused, reset mid-stream,
// truncated body). The replica is taken out of rotation immediately —
// waiting for the next probe tick would route more requests into a dead
// node — and only a successful probe re-adds it.
func (g *Gateway) reportFailure(ctx context.Context, r *replica, err error) {
	r.passiveFails.Add(1)
	if r.state.Swap(stateDown) != stateDown {
		g.logEvent(ctx, slog.LevelWarn, "replica down", slog.String("replica", r.url),
			slog.String("cause", "passive"), slog.String("err", err.Error()))
	}
}

// reportDraining marks a replica that answered an align call with the
// draining envelope: it is alive but refusing new work.
func (g *Gateway) reportDraining(ctx context.Context, r *replica) {
	if r.state.CompareAndSwap(stateUp, stateDraining) {
		g.logEvent(ctx, slog.LevelInfo, "replica draining", slog.String("replica", r.url),
			slog.String("cause", "passive"))
	}
}

// probeLoop polls every replica's /v1/readyz on a ticker until ctx ends.
// One probe round runs the replicas sequentially: the fleet is small (a
// handful of replicas) and sequential probing keeps the loop's goroutine
// count at one, which the soak harness's leak checks see.
func (g *Gateway) probeLoop(ctx context.Context) {
	defer close(g.probeDone)
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			for _, r := range g.replicas {
				g.probeOne(ctx, r)
			}
		}
	}
}

// probeOne runs one readyz probe and applies the state transition rules:
// ready → Up (recovery included), draining → Draining, transport error →
// Down after FailAfter consecutive failures (one flaky probe on a loaded
// box should not evict a healthy replica — passive detection already
// handles hard failures instantly).
func (g *Gateway) probeOne(ctx context.Context, r *replica) {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	rd, err := r.probe.Ready(pctx)
	cancel()
	switch {
	case err != nil:
		r.probeFails.Add(1)
		if int(r.failStreak.Add(1)) >= g.cfg.FailAfter {
			if r.state.Swap(stateDown) != stateDown {
				g.logEvent(ctx, slog.LevelWarn, "replica down", slog.String("replica", r.url),
					slog.String("cause", "probe"), slog.String("err", err.Error()))
			}
		}
	case rd.Status == "ready":
		r.failStreak.Store(0)
		if r.state.Swap(stateUp) != stateUp {
			g.logEvent(ctx, slog.LevelInfo, "replica up", slog.String("replica", r.url),
				slog.String("cause", "probe"))
		}
	default: // "draining"
		r.failStreak.Store(0)
		if r.state.Swap(stateDraining) != stateDraining {
			g.logEvent(ctx, slog.LevelInfo, "replica draining", slog.String("replica", r.url),
				slog.String("cause", "probe"))
		}
	}
}

// healthyCount returns how many replicas are currently Up.
func (g *Gateway) healthyCount() int {
	n := 0
	for _, r := range g.replicas {
		if r.State() == stateUp {
			n++
		}
	}
	return n
}
