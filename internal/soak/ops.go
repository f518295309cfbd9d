package soak

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/obs"
	"repro/pkg/bwaclient"
)

// worker is one load generator: a seeded stream of operations drawn from
// the weighted mix until the load context expires. Worker id feeds the
// seed so the fleet is deterministic as a set but not in lockstep.
func (r *runner) worker(ctx context.Context, id int) {
	rng := rand.New(rand.NewSource(r.o.Seed + int64(id)*7919 + 13))
	for ctx.Err() == nil {
		r.step(ctx, rng)
	}
}

// step draws one operation. Weights: the align paths dominate (they are
// the point), with a steady trickle of adversarial and observability ops.
func (r *runner) step(ctx context.Context, rng *rand.Rand) {
	switch n := rng.Intn(100); {
	case n < 30:
		t := r.w.singles[rng.Intn(len(r.w.singles))]
		r.doAlign(ctx, rng, opSingle, t)
	case n < 52:
		t := r.w.paireds[rng.Intn(len(r.w.paireds))]
		r.doAlign(ctx, rng, opPaired, t)
	case n < 62:
		t := r.w.singles[rng.Intn(len(r.w.singles))]
		r.doAlign(ctx, rng, opSlow, t)
	case n < 72:
		t := r.w.singles[rng.Intn(len(r.w.singles))]
		r.doCancel(ctx, rng, t)
	case n < 78:
		r.doReject(ctx, opOversize, r.w.oversize)
	case n < 86:
		r.doReject(ctx, opMalformed, r.w.malformed[rng.Intn(len(r.w.malformed))])
	case n < 93:
		r.doHealth(ctx)
	default:
		r.doMetrics(ctx)
	}
}

// doAlign runs one success-path align operation (single, paired, or
// slow-reader) and checks the byte-identity and error-envelope
// invariants on the outcome.
func (r *runner) doAlign(ctx context.Context, rng *rand.Rand, op string, t template) {
	acc := r.ops[op]
	acc.attempts.Add(1)
	nreads := int64(len(t.reads) + len(t.r1) + len(t.r2))
	reqCtx, cancel := context.WithTimeout(ctx, opTimeout)
	start := time.Now()
	var got []byte
	var err error
	switch op {
	case opPaired:
		got, err = r.client.AlignPairedSAM(reqCtx, t.r1, t.r2)
	case opSlow:
		got, err = r.drainSlow(reqCtx, t.reads)
	default:
		got, err = r.client.AlignSAM(reqCtx, t.reads)
	}
	lat := time.Since(start)
	cancel()
	ph := r.cur.Load()

	if err == nil {
		acc.ok.Add(1)
		ph.requests.Add(1)
		ph.reads.Add(nreads)
		ph.samBytes.Add(int64(len(got)))
		ph.lat.Observe(lat)
		if !bytes.Equal(got, t.want) {
			r.violate("byte-identity", "op %s: response (%d bytes) differs from offline pipeline oracle (%d bytes)",
				op, len(got), len(t.want))
		}
		return
	}
	r.failed(ctx, op, acc, ph, err, "")
}

// drainSlow is the slow-reader client: it consumes the SAM stream a few
// records at a time with deliberate stalls, holding the response (and the
// server's admission slots) open far longer than a bulk read would.
func (r *runner) drainSlow(ctx context.Context, reads []bwaclient.Read) ([]byte, error) {
	st, err := r.client.Align(ctx, reads)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var buf bytes.Buffer
	n := 0
	for st.Next() {
		buf.Write(st.Record())
		buf.WriteByte('\n')
		if n++; n%4 == 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Millisecond):
			}
		}
	}
	if err := st.Err(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// doCancel abandons an align request after a few milliseconds. Any error
// outcome is acceptable (the deadline usually wins the race, but the
// server can answer first under light load — then the oracle still
// applies); what the run checks is that budgets drain afterwards, via the
// follow-up traffic and the end-of-run metrics.
func (r *runner) doCancel(ctx context.Context, rng *rand.Rand, t template) {
	acc := r.ops[opCancel]
	acc.attempts.Add(1)
	d := time.Duration(1+rng.Intn(15)) * time.Millisecond
	reqCtx, cancel := context.WithTimeout(ctx, d)
	got, err := r.client.AlignSAM(reqCtx, t.reads)
	cancel()
	ph := r.cur.Load()
	if err == nil {
		acc.ok.Add(1)
		ph.requests.Add(1)
		ph.reads.Add(int64(len(t.reads)))
		ph.samBytes.Add(int64(len(got)))
		if !bytes.Equal(got, t.want) {
			r.violate("byte-identity", "op %s: response (%d bytes) differs from offline pipeline oracle (%d bytes)",
				opCancel, len(got), len(t.want))
		}
		return
	}
	if ctx.Err() == nil && r.classifyRejection(opCancel, acc, ph, err, "") {
		return
	}
	acc.cancelled.Add(1)
	ph.cancelled.Add(1)
}

// doReject sends a request the server must refuse and asserts the typed
// error envelope: an *APIError carrying the template's expected code
// (load shedding and drain rejections are also legitimate answers).
func (r *runner) doReject(ctx context.Context, op string, t template) {
	acc := r.ops[op]
	acc.attempts.Add(1)
	reqCtx, cancel := context.WithTimeout(ctx, opTimeout)
	_, err := r.client.AlignSAM(reqCtx, t.reads)
	cancel()
	ph := r.cur.Load()
	if err == nil {
		acc.ok.Add(1)
		r.violate("error-envelope", "op %s: request the server must reject (%s) was accepted", op, t.wantCode)
		return
	}
	r.failed(ctx, op, acc, ph, err, t.wantCode)
}

// failed settles an operation's error: a typed rejection is classified,
// an error after the run's deadline is not a fault, and anything else is
// a transport error — a violation, since neither the in-process server
// nor the gateway front door is ever killed.
func (r *runner) failed(ctx context.Context, op string, acc *opAcc, ph *phaseAcc, err error, wantCode string) {
	if r.classifyRejection(op, acc, ph, err, wantCode) || ctx.Err() != nil {
		return
	}
	acc.transport.Add(1)
	ph.transport.Add(1)
	r.violate("transport-error", "op %s: %v", op, err)
}

// classifyRejection inspects an align error. A typed *APIError is
// recorded under its code and, when the op expects a specific code,
// checked against it; an untyped status rejection is an error-envelope
// violation. Returns false for transport-level errors.
func (r *runner) classifyRejection(op string, acc *opAcc, ph *phaseAcc, err error, wantCode string) bool {
	var apiErr *bwaclient.APIError
	if !errors.As(err, &apiErr) {
		return false
	}
	code := apiErr.Code
	if code == "" {
		r.violate("error-envelope", "op %s: HTTP %d rejection without a typed error code", op, apiErr.StatusCode)
		code = fmt.Sprintf("http_%d", apiErr.StatusCode)
	} else if wantCode != "" &&
		code != wantCode && code != bwaclient.CodeOverloaded && code != bwaclient.CodeDraining {
		r.violate("error-envelope", "op %s: rejected with code %q, want %q", op, code, wantCode)
	}
	acc.reject(code)
	ph.reject(code)
	return true
}

// doHealth polls /v1/healthz. Under load the server must report a
// well-formed status.
func (r *runner) doHealth(ctx context.Context) {
	acc := r.ops[opHealth]
	acc.attempts.Add(1)
	reqCtx, cancel := context.WithTimeout(ctx, opTimeout)
	h, err := r.client.Health(reqCtx)
	cancel()
	if err != nil {
		r.failed(ctx, opHealth, acc, r.cur.Load(), err, "")
		return
	}
	acc.ok.Add(1)
	if h.Status != "ok" && h.Status != "draining" {
		r.violate("health", "healthz status %q", h.Status)
	}
}

// doMetrics polls /v1/metrics, sharing the align traffic's connections —
// the scrape path must stay functional under full load.
func (r *runner) doMetrics(ctx context.Context) {
	acc := r.ops[opMetrics]
	acc.attempts.Add(1)
	reqCtx, cancel := context.WithTimeout(ctx, opTimeout)
	text, err := r.client.Metrics(reqCtx)
	cancel()
	if err != nil {
		r.failed(ctx, opMetrics, acc, r.cur.Load(), err, "")
		return
	}
	acc.ok.Add(1)
	if _, err := obs.ParseMetrics(text); len(text) == 0 || err != nil {
		r.violate("metrics", "unreadable /v1/metrics body under load (%d bytes): %v", len(text), err)
	}
}
