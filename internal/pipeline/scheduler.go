package pipeline

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
)

// StageObserver receives the per-stage time one unit of work (a batch task)
// spent in each kernel stage, called once per non-zero stage per task from
// the worker that ran it. Observers must be cheap and concurrency-safe:
// they run on the hot worker loop.
type StageObserver func(s counters.Stage, d time.Duration)

// QueueWaitObserver receives, for each task a worker starts, how long the
// task waited between submission and that start. Same rules as
// StageObserver.
type QueueWaitObserver func(d time.Duration)

// Scheduler is the work engine shared by the one-shot CLI
// (Run/RunPaired build an ephemeral one per call) and the long-lived
// alignment server (which keeps a single Scheduler for the process
// lifetime). It owns a fixed pool of worker goroutines, each with its own
// reusable core.Workspace (§3.2 of the paper: few large allocations, reused
// across batches — and, in the server, across requests), pulling units of
// work dynamically from a bounded queue. Concurrent submitters interleave
// at task granularity, which is what lets the server multiplex many
// requests over one warm index without oversubscribing the machine.
type Scheduler struct {
	aligner *core.Aligner
	threads int
	tasks   chan task
	workers sync.WaitGroup
	clock   counters.AtomicClock
	stageOb atomic.Pointer[StageObserver]
	waitOb  atomic.Pointer[QueueWaitObserver]
}

type task struct {
	// ctx, when non-nil, gates execution: a worker that pops a task whose
	// context is already cancelled skips run entirely (the task still
	// counts as done). This is how an abandoned request's queued-but-
	// unstarted batches are dropped instead of aligned into a response
	// nobody will read.
	ctx  context.Context
	run  func(ws *core.Workspace)
	done *sync.WaitGroup // nil for Go tasks
	enq  time.Time       // submission time, for the queue-wait observer
}

// NewScheduler starts a pool of threads workers over the aligner.
// threads <= 0 means 1. Close must be called to release the workers.
func NewScheduler(a *core.Aligner, threads int) *Scheduler {
	if threads <= 0 {
		threads = 1
	}
	s := &Scheduler{
		aligner: a,
		threads: threads,
		tasks:   make(chan task, 4*threads),
	}
	for w := 0; w < threads; w++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

func (s *Scheduler) worker() {
	defer s.workers.Done()
	var clock, flushed counters.StageClock
	ws := &core.Workspace{Clock: &clock}
	for t := range s.tasks {
		if t.ctx == nil || t.ctx.Err() == nil {
			if ob := s.waitOb.Load(); ob != nil {
				(*ob)(time.Since(t.enq))
			}
			t.run(ws)
		}
		// Publish stage time before signalling completion so a caller that
		// returns from EachCtx observes its own work in Clock(). The
		// observer sees the same per-task deltas, and must run before
		// AddDelta copies clock over flushed.
		if ob := s.stageOb.Load(); ob != nil {
			for i := range clock.T {
				if d := clock.T[i] - flushed.T[i]; d != 0 {
					(*ob)(counters.Stage(i), d)
				}
			}
		}
		s.clock.AddDelta(&clock, &flushed)
		if t.done != nil {
			t.done.Done()
		}
	}
}

// Aligner returns the aligner the pool serves.
func (s *Scheduler) Aligner() *core.Aligner { return s.aligner }

// Threads returns the worker count.
func (s *Scheduler) Threads() int { return s.threads }

// Clock returns a snapshot of the per-stage time accumulated by all workers
// since the scheduler started. Safe to call concurrently with running work.
func (s *Scheduler) Clock() counters.StageClock { return s.clock.Snapshot() }

// SetStageObserver installs (or, with nil, removes) a per-task stage-time
// observer. Safe to call concurrently with running work; tasks in flight
// may report to either the old or the new observer.
func (s *Scheduler) SetStageObserver(ob StageObserver) {
	if ob == nil {
		s.stageOb.Store(nil)
		return
	}
	s.stageOb.Store(&ob)
}

// SetQueueWaitObserver installs (or, with nil, removes) the observer of
// each started task's queue wait. Safe to call concurrently with running
// work.
func (s *Scheduler) SetQueueWaitObserver(ob QueueWaitObserver) {
	if ob == nil {
		s.waitOb.Store(nil)
		return
	}
	s.waitOb.Store(&ob)
}

// EachCtx runs fn(ws, i) for every i in [0,n), distributed dynamically
// across the worker pool. Multiple EachCtx calls may be in flight
// concurrently; their tasks interleave. fn must not itself call EachCtx or
// Go (workers executing tasks would deadlock on a full queue). Once ctx is
// done, queued tasks not yet picked up by a worker are skipped (fn never
// runs for them) and no further tasks are submitted. It blocks until every
// submitted task has either run or been skipped, then returns ctx.Err() —
// nil when all n calls completed.
func (s *Scheduler) EachCtx(ctx context.Context, n int, fn func(ws *core.Workspace, i int)) error {
	var wg sync.WaitGroup
	wg.Add(n)
	queued := 0
submit:
	for i := 0; i < n; i++ {
		i := i
		t := task{ctx: ctx, run: func(ws *core.Workspace) { fn(ws, i) }, done: &wg, enq: time.Now()}
		select {
		case s.tasks <- t:
			queued++
		case <-ctx.Done():
			break submit
		}
	}
	for ; queued < n; queued++ {
		wg.Done() // account for tasks never submitted
	}
	wg.Wait()
	return ctx.Err()
}

// Go submits one task without waiting for it. It may block briefly when the
// task queue is full (backpressure). The task always runs, even after its
// submitter's context ends: completion and cancellation are fn's business.
func (s *Scheduler) Go(fn func(ws *core.Workspace)) {
	s.tasks <- task{run: fn, enq: time.Now()}
}

// Close waits for queued tasks to finish and stops the workers. No EachCtx
// or Go may be started after (or concurrently with) Close.
func (s *Scheduler) Close() {
	close(s.tasks)
	s.workers.Wait()
}
