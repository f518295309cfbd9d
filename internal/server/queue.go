package server

import (
	"context"
	"errors"
	"sync"
)

// Admission-control errors returned by Admission.TryAcquire.
var (
	// errQueueFull means admitting the request would exceed the in-flight
	// read budget; the replica maps it to HTTP 429.
	errQueueFull = errors.New("server: admission queue full")
	// errDraining means the tier is shutting down; mapped to HTTP 503.
	errDraining = errors.New("server: draining")
)

// Admission is the load-shedding and drain gate both tiers run their align
// requests through: a counting semaphore over reads (not requests, so one
// huge request can't starve the budget accounting) with a drain mode for
// graceful shutdown. On a replica, work admitted here is guaranteed a slot
// in the bounded scheduler queue eventually, and work rejected here never
// touches the alignment pool, keeping tail latency of admitted requests
// bounded under overload. The gateway runs it with an unbounded budget, so
// there it only counts what a drain must wait for.
type Admission struct {
	mu       sync.Mutex
	max      int
	inflight int
	draining bool
	// idle is lazily created by a WaitIdle caller and closed (then cleared)
	// by the Release that takes inflight to zero, so waiting for drain
	// costs nothing instead of busy-polling.
	idle chan struct{}
}

// NewAdmission returns a gate admitting at most maxReads reads at once.
func NewAdmission(maxReads int) *Admission {
	return &Admission{max: maxReads}
}

// TryAcquire admits n reads or reports why it can't. It never blocks:
// under overload the right answer is an immediate 429, not a growing
// backlog.
func (q *Admission) TryAcquire(n int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return errDraining
	}
	if q.inflight+n > q.max {
		return errQueueFull
	}
	q.inflight += n
	return nil
}

// Release returns n admitted reads to the budget, waking WaitIdle callers
// when the queue empties.
func (q *Admission) Release(n int) {
	q.mu.Lock()
	q.inflight -= n
	if q.inflight < 0 {
		panic("server: admission release underflow")
	}
	if q.inflight == 0 && q.idle != nil {
		close(q.idle)
		q.idle = nil
	}
	q.mu.Unlock()
}

// InFlight returns the reads currently admitted.
func (q *Admission) InFlight() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.inflight
}

// SetDraining flips the gate: all future TryAcquire calls fail with
// errDraining while already-admitted work runs to completion.
func (q *Admission) SetDraining() {
	q.mu.Lock()
	q.draining = true
	q.mu.Unlock()
}

// Draining reports whether SetDraining has been called.
func (q *Admission) Draining() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.draining
}

// WaitIdle blocks until no reads are in flight or ctx ends, reporting
// whether the queue drained. It parks on a notification channel closed by
// the emptying Release rather than polling, so a long drain costs no CPU.
func (q *Admission) WaitIdle(ctx context.Context) bool {
	for {
		q.mu.Lock()
		if q.inflight == 0 {
			q.mu.Unlock()
			return true
		}
		if q.idle == nil {
			q.idle = make(chan struct{})
		}
		idle := q.idle
		q.mu.Unlock()
		select {
		case <-idle:
			// Re-check: the budget may already be occupied again by work
			// admitted between the close and this wakeup.
		case <-ctx.Done():
			return false
		}
	}
}
