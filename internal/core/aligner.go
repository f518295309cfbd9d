package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bsw"
	"repro/internal/chain"
	"repro/internal/counters"
	"repro/internal/fmindex"
	"repro/internal/sal"
	"repro/internal/seq"
)

// Aligner is the assembled BWA-MEM pipeline over one indexed reference.
// Build one with NewAligner and share it read-only across goroutines; give
// each goroutine its own Workspace.
type Aligner struct {
	Ref  *seq.Reference
	Idx  *fmindex.Index
	SA   *sal.SA
	Opts Options

	par5, par3 bsw.Params
	chOpts     chain.Opts
	renders    sync.Pool // *render: SAM-FORM scratch, one per call in flight
}

// Workspace holds all per-worker scratch, allocated once and reused across
// reads and batches (§3.2 of the paper: few large allocations, reused).
// Clock, when non-nil, accumulates per-stage wall time for the experiments.
type Workspace struct {
	smem       fmindex.SMEMBuf
	intervals  []fmindex.BiInterval
	lanes      fmindex.SeedBatchBuf
	batch      [][]fmindex.BiInterval // SeedBatch's intervals, read i's at batch[i], views into lanes
	seeds      []chain.Seed
	scalar     bsw.ScalarBuf
	qrev, trev []byte
	rwin       []byte // extendChain's reference window
	Clock      *counters.StageClock
}

// NewAligner indexes the reference and assembles the pipeline for the given
// mode: BuildPrebuilt followed by NewAlignerFrom.
func NewAligner(ref *seq.Reference, mode Mode, opts Options) (*Aligner, error) {
	if ref.Lpac() == 0 {
		return nil, fmt.Errorf("core: empty reference")
	}
	pi, err := BuildPrebuilt(ref)
	if err != nil {
		return nil, err
	}
	return NewAlignerFrom(pi, mode, opts)
}

// IndexFootprint returns the bytes of index data the aligner addresses:
// packed reference, BWT column, occurrence table, and the suffix-array
// lookup structure. Over a heap-loaded index this is private resident
// memory; over an mmap'd index the same bytes are file-backed and shared
// with every other process mapping the file.
func (a *Aligner) IndexFootprint() int64 {
	return int64(len(a.Ref.Pac)) + int64(len(a.Idx.B.B0)) +
		int64(a.Idx.MemFootprint()) + int64(a.SA.MemFootprint())
}

// ridOf resolves a doubled-reference span to a contig id, or -1 when the
// span bridges contigs or the forward/reverse boundary (bns_intv2rid).
func (a *Aligner) ridOf(rb, re int) int {
	l := a.Ref.Lpac()
	if rb < l && re > l {
		return -1
	}
	fb, fe := rb, re
	if rb >= l {
		fb, fe = 2*l-re, 2*l-rb
	}
	i1, _ := a.Ref.PosToContig(fb)
	i2, _ := a.Ref.PosToContig(fe - 1)
	if i1 < 0 || i1 != i2 {
		return -1
	}
	return i1
}

// fracRep measures the fraction of the read covered by seed intervals more
// frequent than MaxOcc (mem_chain's l_rep).
func fracRep(intervals []fmindex.BiInterval, maxOcc, qlen int) float64 {
	if qlen == 0 {
		return 0
	}
	lRep, b, e := 0, 0, 0
	for _, p := range intervals {
		if p.S <= maxOcc {
			continue
		}
		sb, se := int(p.QBeg), int(p.QEnd)
		if sb > e {
			lRep += e - b
			b, e = sb, se
		} else if se > e {
			e = se
		}
	}
	lRep += e - b
	return float64(lRep) / float64(qlen)
}

// placeSeeds is the SAL stage: each seed interval's occurrences are sampled
// (at most MaxOcc, with stride S/MaxOcc for repetitive seeds) and converted
// to reference coordinates via the suffix array.
func (a *Aligner) placeSeeds(intervals []fmindex.BiInterval, out []chain.Seed) []chain.Seed {
	out = out[:0]
	for _, p := range intervals {
		slen := p.Len()
		step := 1
		if p.S > a.Opts.MaxOcc {
			step = p.S / a.Opts.MaxOcc
		}
		for k, count := 0, 0; k < p.S && count < a.Opts.MaxOcc; k, count = k+step, count+1 {
			rbeg := a.SA.Lookup(p.K + k)
			out = append(out, chain.Seed{RBeg: rbeg, QBeg: int(p.QBeg), Len: slen, Score: slen})
		}
	}
	return out
}

// chainRead runs seeding, SAL and chaining for one read (pipeline stages 1-3).
func (a *Aligner) chainRead(q []byte, ws *Workspace) []*chain.Chain {
	t0 := time.Now()
	ws.intervals = a.Idx.CollectIntervals(q, a.Opts.Seed, &ws.smem, ws.intervals)
	ws.Clock.Add(counters.StageSMEM, time.Since(t0))
	return a.chainSeeded(q, ws.intervals, ws)
}

// chainSeeded runs SAL and chaining over one read's seed intervals
// (pipeline stages 2-3).
func (a *Aligner) chainSeeded(q []byte, intervals []fmindex.BiInterval, ws *Workspace) []*chain.Chain {
	t1 := time.Now()
	fr := fracRep(intervals, a.Opts.MaxOcc, len(q))
	ws.seeds = a.placeSeeds(intervals, ws.seeds)
	t2 := time.Now()
	ws.Clock.Add(counters.StageSAL, t2.Sub(t1))
	chains := chain.Build(&a.chOpts, a.Ref.Lpac(), ws.seeds, a.ridOf, fr)
	chains = chain.Filter(&a.chOpts, chains)
	ws.Clock.Add(counters.StageChain, time.Since(t2))
	return chains
}

// SeedBatch is the batch path's first stage: SMEM seeding of every read
// of reads (numeric codes) into ws, fmindex.SeedLanes reads at a time
// (Index.CollectIntervalsBatch), for AlignSeeded to take up read by read.
// A Baseline aligner seeds nothing here: its AlignSeeded seeds each read
// itself, keeping original BWA-MEM's per-read order.
func (a *Aligner) SeedBatch(reads [][]byte, ws *Workspace) {
	if a.Idx.Flavor() == fmindex.Baseline {
		return
	}
	t0 := time.Now()
	ws.batch = a.Idx.CollectIntervalsBatch(reads, a.Opts.Seed, &ws.lanes, ws.batch)
	ws.Clock.Add(counters.StageSMEM, time.Since(t0))
}

// AlignSeeded maps read i of the last SeedBatch on ws, whose codes are q,
// to candidate regions: SAL, chaining and scalar extension with the
// online contained-seed skip. Regions come back sorted by decreasing
// score with secondary marking applied.
func (a *Aligner) AlignSeeded(i int, q []byte, ws *Workspace) []Region {
	var chains []*chain.Chain
	if a.Idx.Flavor() == fmindex.Baseline {
		chains = a.chainRead(q, ws)
	} else {
		chains = a.chainSeeded(q, ws.batch[i], ws)
	}
	t0 := time.Now()
	var regs []Region
	for _, c := range chains {
		regs = a.extendChain(q, c, regs, ws)
	}
	ws.Clock.Add(counters.StageBSW, time.Since(t0))
	t1 := time.Now()
	regs = a.dedupRegions(regs)
	a.markPrimary(regs)
	ws.Clock.Add(counters.StageMisc, time.Since(t1))
	return regs
}

// AlignRead maps one read (numeric codes) to candidate regions: a batch of
// one.
func (a *Aligner) AlignRead(q []byte, ws *Workspace) []Region {
	if ws == nil {
		ws = &Workspace{}
	}
	qs := [1][]byte{q}
	a.SeedBatch(qs[:], ws)
	return a.AlignSeeded(0, q, ws)
}

// CollectBSWJobs reproduces the paper's kernel-benchmark methodology for
// BSW (§2.5, §6.2.3): it runs the pipeline up to the extension stage and
// returns the sequence pairs that stage would process if every seed were
// extended (left extensions first, then right extensions, whose seed scores
// depend on the left results). The returned jobs carry band width W and
// initial score H0.
func (a *Aligner) CollectBSWJobs(reads [][]byte, ws *Workspace) []bsw.Job {
	if ws == nil {
		ws = &Workspace{}
	}
	var left, right []bsw.Job
	for _, q := range reads {
		for _, c := range a.chainRead(q, ws) {
			if len(c.Seeds) == 0 {
				continue
			}
			rmax0, rseq := a.chainWindow(nil, len(q), c) // the jobs keep rseq
			for si := range c.Seeds {
				s := &c.Seeds[si]
				reg := a.newRegion(c)
				if s.QBeg > 0 {
					job := bsw.Job{Query: reverseBytes(nil, q[:s.QBeg]),
						Target: reverseBytes(nil, rseq[:s.RBeg-rmax0]),
						W:      a.Opts.W, H0: s.Len * a.Opts.MatchScore}
					left = append(left, job)
					res, _ := a.extend(&ws.scalar, &a.par5, job.Query, job.Target, job.H0, -1)
					a.applyLeft(&reg, s, res)
				} else {
					a.applyNoLeft(&reg, s)
				}
				if qe := s.QBeg + s.Len; qe != len(q) {
					re := s.RBeg + s.Len - rmax0
					right = append(right, bsw.Job{Query: q[qe:], Target: rseq[re:],
						W: a.Opts.W, H0: reg.Score})
				}
			}
		}
	}
	return append(left, right...)
}

// AlignBatch is the batch path: SeedBatch over all of reads, then
// AlignSeeded read by read. A read's regions never depend on the other
// reads of the batch.
func (a *Aligner) AlignBatch(reads [][]byte, ws *Workspace) [][]Region {
	if ws == nil {
		ws = &Workspace{}
	}
	a.SeedBatch(reads, ws)
	out := make([][]Region, len(reads))
	for i, q := range reads {
		out[i] = a.AlignSeeded(i, q, ws)
	}
	return out
}
