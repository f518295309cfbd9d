// Package obs is the serving stack's observability layer: latency
// histograms, per-request span timelines, a bounded trace ring for debug
// endpoints, Go runtime metrics, and the one writer and reader of the
// Prometheus text exposition — the measurement plumbing the paper's
// methodology demands (every optimization in Tables 4-8 is justified by a
// per-kernel breakdown) applied to the long-lived server.
//
// Design rules: every recording hook is cheap (atomics, no allocation on
// the hot path) and nil receivers are safe no-ops, so callers instrument
// unconditionally. Histograms are safe for fully concurrent Observe and
// exposition; Span and TraceRing are mutex-guarded.
package obs
