package pipeline

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/obs"
)

// Scheduler is the work engine shared by the one-shot CLI
// (Run/RunPaired build an ephemeral one per call) and the long-lived
// alignment server (which keeps a single Scheduler for the process
// lifetime). It owns a fixed pool of worker goroutines, each with its own
// reusable core.Workspace (§3.2 of the paper: few large allocations, reused
// across batches — and, in the server, across requests), pulling units of
// work dynamically from a bounded queue. Concurrent submitters interleave
// at task granularity, which is what lets the server multiplex many
// requests over one warm index without oversubscribing the machine.
//
// The pool records its time once, in histograms: per task, the time spent
// in each kernel stage and the wait between submission and start. Clock is
// their per-stage sums, and the server exports the histograms themselves.
type Scheduler struct {
	aligner   *core.Aligner
	threads   int
	tasks     chan task
	workers   sync.WaitGroup
	stage     [counters.NumStages]obs.Histogram // per task, each non-zero stage time
	queueWait obs.Histogram                     // per started task: submission -> start
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
	enq  time.Time       // submission time, for the queue-wait histogram
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
			s.queueWait.Observe(time.Since(t.enq))
			t.run(ws)
		}
		// Record stage time before signalling completion so a caller that
		// returns from EachCtx observes its own work in Clock().
		for i := range clock.T {
			if d := clock.T[i] - flushed.T[i]; d != 0 {
				s.stage[i].Observe(d)
			}
		}
		flushed = clock
		if t.done != nil {
			t.done.Done()
		}
	}
}

// Aligner returns the aligner the pool serves.
func (s *Scheduler) Aligner() *core.Aligner { return s.aligner }

// Threads returns the worker count.
func (s *Scheduler) Threads() int { return s.threads }

// Clock returns the per-stage time accumulated by all workers since the
// scheduler started: the sums of the stage histograms, exact to the
// nanosecond. Safe to call concurrently with running work.
func (s *Scheduler) Clock() counters.StageClock {
	var c counters.StageClock
	for i := range c.T {
		c.T[i] = s.stage[i].Sum()
	}
	return c
}

// StageTime returns the histogram of per-task time in stage st (tasks that
// spent none in it are not counted).
func (s *Scheduler) StageTime(st counters.Stage) *obs.Histogram { return &s.stage[st] }

// QueueWait returns the histogram of each started task's wait between
// submission and start (tasks skipped because their context ended are not
// counted).
func (s *Scheduler) QueueWait() *obs.Histogram { return &s.queueWait }

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
