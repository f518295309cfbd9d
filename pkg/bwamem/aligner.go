package bwamem

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/pipeline"
)

// Aligner maps reads against one Index. Construct with New; all methods
// are safe for concurrent use (concurrent Align calls interleave on the
// aligner's shared worker pool at batch granularity). Close releases the
// pool; the Index is not touched.
type Aligner struct {
	idx  *Index
	core *core.Aligner
	cfg  config

	mu     sync.Mutex
	sched  *pipeline.Scheduler // created on first use
	closed bool
}

// New assembles an Aligner over idx. Options default to runtime.NumCPU
// worker threads, batches of up to 512 reads, and BWA-MEM's standard scoring.
func New(idx *Index, opts ...Option) (*Aligner, error) {
	if idx == nil {
		return nil, fmt.Errorf("bwamem: nil index")
	}
	cfg, err := resolveConfig(opts)
	if err != nil {
		return nil, err
	}
	ca, err := core.NewAlignerFrom(idx.pi, core.ModeOptimized, cfg.opts)
	if err != nil {
		return nil, err
	}
	return &Aligner{idx: idx, core: ca, cfg: cfg}, nil
}

// Threads reports the resolved worker count.
func (a *Aligner) Threads() int {
	if a.cfg.threads > 0 {
		return a.cfg.threads
	}
	return runtime.NumCPU()
}

// Header returns the SAM header (@SQ lines for every contig plus @PG) that
// precedes the records of a complete SAM document.
func (a *Aligner) Header() string { return a.core.SAMHeader() }

// scheduler returns the lazily created shared worker pool.
func (a *Aligner) scheduler() (*pipeline.Scheduler, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil, fmt.Errorf("bwamem: aligner is closed")
	}
	if a.sched == nil {
		a.sched = pipeline.NewScheduler(a.core, a.Threads())
	}
	return a.sched, nil
}

// Align maps single-end reads, streaming output: emit is called exactly
// once per read index with that read's SAM records (newline-terminated,
// no header), from worker goroutines in completion — not index — order,
// as soon as the read is formatted. emit must be safe for concurrent use
// and must not block for long (it runs on the pool). The record slice is
// owned by the callee.
//
// Cancelling ctx drops batches that have not started and returns
// ctx.Err(); records already emitted stay emitted.
func (a *Aligner) Align(ctx context.Context, reads []Read, emit func(i int, rec []byte)) error {
	_, err := a.align(ctx, reads, emit)
	return err
}

// align is the body of Align and AlignWithStats.
func (a *Aligner) align(ctx context.Context, reads []Read, emit func(i int, rec []byte)) (*pipeline.Result, error) {
	s, err := a.scheduler()
	if err != nil {
		return nil, err
	}
	return pipeline.RunStreamOn(ctx, s, toSeqReads(reads),
		pipeline.Config{BatchSize: a.cfg.batch}, emit)
}

// Stats summarizes one alignment call: what it processed, how long it
// took, and where the kernel time went.
type Stats struct {
	// Reads is the number of reads mapped (pairs count both ends).
	Reads int
	// Wall is the call's end-to-end wall time.
	Wall time.Duration
	// StageSeconds is this call's per-stage kernel time, keyed by stage
	// name ("SMEM", "SAL", "CHAIN", "BSW-pre", "BSW", "SAM-FORM", "Misc").
	// It is measured as the pool clock's delta across the call: exact when
	// nothing else runs on the aligner, approximate under concurrent Align
	// calls (their stage time interleaves into the same pool).
	StageSeconds map[string]float64
}

// statsOf summarizes one call's pipeline result; on error it is the zero
// Stats.
func statsOf(res *pipeline.Result, err error) (Stats, error) {
	if err != nil {
		return Stats{}, err
	}
	st := Stats{Reads: res.Reads, Wall: res.Wall,
		StageSeconds: make(map[string]float64, counters.NumStages)}
	for _, stage := range counters.Stages() {
		st.StageSeconds[stage.String()] = res.Clock.T[stage].Seconds()
	}
	return st, nil
}

// AlignWithStats is Align plus a per-call Stats summary (wall time and the
// call's per-stage kernel time). On error the zero Stats is returned.
func (a *Aligner) AlignWithStats(ctx context.Context, reads []Read, emit func(i int, rec []byte)) (Stats, error) {
	return statsOf(a.align(ctx, reads, emit))
}

// AlignPairedWithStats is AlignPaired plus a per-call Stats summary;
// Stats.Reads counts both ends of every pair. On error the zero Stats is
// returned.
func (a *Aligner) AlignPairedWithStats(ctx context.Context, reads1, reads2 []Read, emit func(i int, rec []byte)) (Stats, error) {
	return statsOf(a.alignPaired(ctx, reads1, reads2, emit))
}

// AlignSAM maps single-end reads and returns a complete SAM document:
// header plus one block of records per read, in input order.
func (a *Aligner) AlignSAM(ctx context.Context, reads []Read) ([]byte, error) {
	perRead := make([][]byte, len(reads))
	if err := a.Align(ctx, reads, func(i int, rec []byte) { perRead[i] = rec }); err != nil {
		return nil, err
	}
	return assembleSAM(a.Header(), perRead), nil
}

// AlignPaired maps read pairs (reads1[i] pairs with reads2[i]): both ends
// go through the pipeline, the FR insert-size distribution is inferred
// from this call's confident pairs alone, and emit receives each pair's
// records (both ends) once pairing completes, under Align's callback
// contract with pair indexes in place of read indexes.
func (a *Aligner) AlignPaired(ctx context.Context, reads1, reads2 []Read, emit func(i int, rec []byte)) error {
	_, err := a.alignPaired(ctx, reads1, reads2, emit)
	return err
}

// alignPaired is the body of AlignPaired and AlignPairedWithStats.
func (a *Aligner) alignPaired(ctx context.Context, reads1, reads2 []Read, emit func(i int, rec []byte)) (*pipeline.Result, error) {
	if len(reads1) != len(reads2) {
		return nil, fmt.Errorf("bwamem: unequal pair lists: %d vs %d reads", len(reads1), len(reads2))
	}
	s, err := a.scheduler()
	if err != nil {
		return nil, err
	}
	return pipeline.RunPairedStreamOn(ctx, s, toSeqReads(reads1), toSeqReads(reads2),
		pipeline.Config{BatchSize: a.cfg.batch}, emit)
}

// AlignPairedSAM maps read pairs and returns a complete SAM document in
// pair order.
func (a *Aligner) AlignPairedSAM(ctx context.Context, reads1, reads2 []Read) ([]byte, error) {
	perPair := make([][]byte, len(reads1))
	if err := a.AlignPaired(ctx, reads1, reads2, func(i int, rec []byte) { perPair[i] = rec }); err != nil {
		return nil, err
	}
	return assembleSAM(a.Header(), perPair), nil
}

// StageSeconds returns the cumulative per-stage kernel time of this
// aligner's worker pool, keyed by stage name ("SMEM", "SAL", "CHAIN",
// "BSW-pre", "BSW", "SAM-FORM", "Misc") — the paper's Table 1 rows. Zero
// map before the first alignment.
func (a *Aligner) StageSeconds() map[string]float64 {
	a.mu.Lock()
	s := a.sched
	a.mu.Unlock()
	out := make(map[string]float64, counters.NumStages)
	if s == nil {
		return out
	}
	clock := s.Clock()
	for i := counters.Stage(0); i < counters.NumStages; i++ {
		out[i.String()] = clock.T[i].Seconds()
	}
	return out
}

// Close stops the worker pool. No Align call may be running or started
// afterwards. It does not close the Index.
func (a *Aligner) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	a.closed = true
	if a.sched != nil {
		a.sched.Close()
	}
}

// assembleSAM concatenates the header and per-record blocks sized up front.
func assembleSAM(header string, blocks [][]byte) []byte {
	n := len(header)
	for _, b := range blocks {
		n += len(b)
	}
	sam := make([]byte, 0, n)
	sam = append(sam, header...)
	for _, b := range blocks {
		sam = append(sam, b...)
	}
	return sam
}
