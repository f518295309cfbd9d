// Package pipeline schedules alignment over a worker pool. Reads are cut
// into batches of Config.BatchSize (derived from the run when left at 0,
// see taskSize); a batch is one scheduler task, and the paper's
// batch-staged workflow (Figure 2) runs its first stage across it: the
// worker seeds every read of the task (core.Aligner.SeedBatch, eight
// reads interleaved with software prefetch), then takes each read through
// lookup, chaining, extension and formatting before the next. The later
// stages stay per read: with the scalar extension engine a read's
// extension does not depend on its batch. A read's output never does, so
// output is byte-identical for every batch size and thread count. A
// ModeBaseline aligner seeds inside the per-read loop instead, as original
// BWA-MEM does.
//
// A task renders its records into one buffer it allocates itself and
// emits capped sub-slices of it; the buffer is never written again after
// a record is emitted, so emit may keep what it is given.
//
// # Concurrency contract
//
// Run, RunPaired, and their streaming variants are safe to call
// concurrently with distinct ephemeral configurations; each call owns its
// inputs until it returns. A shared Scheduler is the long-lived form:
// EachCtx, Go and Clock may be called from any goroutine, and tasks from
// concurrent submitters interleave at task granularity on the fixed worker
// pool. Two rules bind task functions: they run on worker goroutines with
// that worker's private core.Workspace (never share a workspace across
// tasks), and they must not call EachCtx or Go themselves — a worker blocking
// on the bounded task queue it is supposed to drain can deadlock the pool.
// Close must not race with new submissions; the RunStreamOn and
// RunPairedStreamOn emit callbacks run on worker goroutines and must not
// block indefinitely.
package pipeline

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/seq"
)

// Config controls one pipeline run.
type Config struct {
	Threads   int // worker goroutines; <=0 means 1
	BatchSize int // reads per scheduler task; <=0 means taskSize's choice
}

// taskSize is how many reads one scheduler task takes when a phase of n
// reads runs on threads workers and the caller left BatchSize at 0: about
// four tasks per worker, so the last task to finish does not leave the
// others idle for long, but never fewer than 64 reads (a seeding batch
// stays full) nor more than core.DefaultBatchSize. With 2500 reads on two
// workers that is 8 tasks of 313 reads instead of 5 of 512, three of which
// one worker would run alone. An explicit BatchSize is used as given: the
// server always passes its configured one, so served tasks do not depend
// on the size of the pool its requests share.
func taskSize(n, threads int) int {
	perWorker := 4 * max(threads, 1)
	return min(core.DefaultBatchSize, max(64, (n+perWorker-1)/perWorker))
}

// Result is the outcome of a pipeline run.
type Result struct {
	SAM   []byte
	Reads int
	Wall  time.Duration
	Clock counters.StageClock // merged per-stage time across workers
}

// Run maps all reads and returns their SAM records in input order, using an
// ephemeral worker pool of cfg.Threads. Result.Clock is exact: the pool is
// this call's alone.
func Run(a *core.Aligner, reads []seq.Read, cfg Config) *Result {
	s := NewScheduler(a, cfg.Threads)
	defer s.Close()
	perRead := make([][]byte, len(reads))
	// context.Background never cancels, so the error is structurally nil.
	res, _ := RunStreamOn(context.Background(), s, reads, cfg,
		func(i int, rec []byte) { perRead[i] = rec })
	res.SAM = concatRecords(perRead)
	return res
}

// RunStreamOn is Run over a caller-owned Scheduler (the alignment server
// shares one warm pool across requests; cfg.Threads is ignored), with
// incremental output and per-request cancellation. Result.Clock is the
// delta of the pool-wide clock across the call, inflated by whatever else
// runs on a shared pool. emit is called exactly once per read index with that read's SAM records, from
// worker goroutines in completion (not index) order, as soon as the read
// is formatted. emit must be safe for concurrent use. When ctx is
// cancelled, batches not yet started are dropped from the scheduler
// queue, running batches stop before their next read's extension (a
// batch's seeding step runs to its end), emit stops being called, and the
// return is (nil, ctx.Err()); the Result's SAM field is always nil (the
// records went through emit).
func RunStreamOn(ctx context.Context, s *Scheduler, reads []seq.Read, cfg Config, emit func(i int, rec []byte)) (*Result, error) {
	a := s.Aligner()
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = taskSize(len(reads), s.Threads())
	}
	start := time.Now()
	clock0 := s.Clock()
	// Encode all reads up front (IO/encoding is excluded from the paper's
	// measurements; keep it out of the stage clocks too).
	codes := make([][]byte, len(reads))
	for i := range reads {
		codes[i] = seq.Encode(reads[i].Seq)
	}

	nBatches := (len(reads) + cfg.BatchSize - 1) / cfg.BatchSize
	err := s.EachCtx(ctx, nBatches, func(ws *core.Workspace, b int) {
		lo := b * cfg.BatchSize
		hi := min(lo+cfg.BatchSize, len(reads))
		if ctx.Err() != nil {
			return
		}
		a.SeedBatch(codes[lo:hi], ws)
		// The task's records go into one buffer, emitted as capped
		// sub-slices and never written again.
		n := 0
		for i := lo; i < hi; i++ {
			n += core.RecordCap(&reads[i])
		}
		buf := make([]byte, 0, n)
		for i := lo; i < hi && ctx.Err() == nil; i++ {
			regs := a.AlignSeeded(i-lo, codes[i], ws)
			t0 := time.Now()
			start := len(buf)
			buf = a.AppendSAM(buf, &reads[i], codes[i], regs)
			ws.Clock.Add(counters.StageSAMForm, time.Since(t0))
			emit(i, buf[start:len(buf):len(buf)])
		}
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Reads: len(reads), Wall: time.Since(start)}
	res.Clock = s.Clock()
	res.Clock.Sub(&clock0)
	return res, nil
}

// concatRecords joins per-read record slices into one buffer sized up front.
func concatRecords(perRead [][]byte) []byte {
	n := 0
	for _, r := range perRead {
		n += len(r)
	}
	sam := make([]byte, 0, n)
	for _, r := range perRead {
		sam = append(sam, r...)
	}
	return sam
}

// pairChunk is how many pairs' records one output buffer of the pairing
// phase has room for.
const pairChunk = 64

// RunPaired maps read pairs (reads1[i] pairs with reads2[i]): both ends are
// aligned, the FR insert-size distribution is inferred from confident
// pairs (mem_pestat), and each pair is emitted with pairing applied
// (mem_sam_pe, without mate rescue).
func RunPaired(a *core.Aligner, reads1, reads2 []seq.Read, cfg Config) *Result {
	s := NewScheduler(a, cfg.Threads)
	defer s.Close()
	perPair := make([][]byte, len(reads1))
	// context.Background never cancels, so the error is structurally nil.
	res, _ := RunPairedStreamOn(context.Background(), s, reads1, reads2, cfg,
		func(i int, rec []byte) { perPair[i] = rec })
	res.SAM = concatRecords(perPair)
	return res
}

// RunPairedStreamOn is RunPaired over a caller-owned Scheduler, with
// incremental output and per-request cancellation. cfg.Threads is ignored;
// pair statistics are inferred from this call's pairs only, so output is
// independent of any concurrent work sharing the scheduler. emit is called exactly once per pair index with that
// pair's SAM records, from worker goroutines in completion (not index)
// order, as soon as the pair is formatted — a server can start writing the
// response while later pairs are still being paired. emit must be safe for
// concurrent use. When ctx is cancelled, batches not yet started are
// dropped from the scheduler queue, emit stops being called, and the
// return is (nil, ctx.Err()); the Result's SAM field is always nil (the
// records went through emit).
func RunPairedStreamOn(ctx context.Context, s *Scheduler, reads1, reads2 []seq.Read, cfg Config, emit func(i int, rec []byte)) (*Result, error) {
	a := s.Aligner()
	if len(reads1) != len(reads2) {
		panic("pipeline: unequal pair lists")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = taskSize(2*len(reads1), s.Threads()) // phase 1 aligns both ends
	}
	start := time.Now()
	clock0 := s.Clock()
	codes1 := make([][]byte, len(reads1))
	codes2 := make([][]byte, len(reads2))
	for i := range reads1 {
		codes1[i] = seq.Encode(reads1[i].Seq)
		codes2[i] = seq.Encode(reads2[i].Seq)
	}
	regs1 := make([][]core.Region, len(reads1))
	regs2 := make([][]core.Region, len(reads2))

	// Phase 1: align all ends, BatchSize reads per task.
	nBatches := (len(reads1) + cfg.BatchSize - 1) / cfg.BatchSize
	err := s.EachCtx(ctx, 2*nBatches, func(ws *core.Workspace, b int) {
		end, bi := b/nBatches, b%nBatches
		codes, regs := codes1, regs1
		if end == 1 {
			codes, regs = codes2, regs2
		}
		lo := bi * cfg.BatchSize
		hi := min(lo+cfg.BatchSize, len(codes))
		a.SeedBatch(codes[lo:hi], ws)
		for i := lo; i < hi; i++ {
			regs[i] = a.AlignSeeded(i-lo, codes[i], ws)
		}
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: infer the insert-size distribution from all pairs.
	ps := a.InferPairStats(regs1, regs2)

	// Phase 3: pair and emit (per-pair dynamic distribution via a shared
	// counter: pairing is cheap, so one task per worker).
	var next int64 = -1
	err = s.EachCtx(ctx, s.Threads(), func(ws *core.Workspace, _ int) {
		// The task's records go into buffers of pairChunk pairs' room,
		// emitted as capped sub-slices and never written again.
		var buf []byte
		for ctx.Err() == nil {
			i := int(atomic.AddInt64(&next, 1))
			if i >= len(reads1) {
				return
			}
			if n := core.RecordCap(&reads1[i]) + core.RecordCap(&reads2[i]); cap(buf)-len(buf) < n {
				buf = make([]byte, 0, pairChunk*n)
			}
			t0 := time.Now()
			start := len(buf)
			buf = a.AppendSAMPair(buf, &ps, &reads1[i], &reads2[i],
				codes1[i], codes2[i], regs1[i], regs2[i])
			ws.Clock.Add(counters.StageSAMForm, time.Since(t0))
			emit(i, buf[start:len(buf):len(buf)])
		}
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Reads: 2 * len(reads1), Wall: time.Since(start)}
	res.Clock = s.Clock()
	res.Clock.Sub(&clock0)
	return res, nil
}
