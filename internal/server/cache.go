package server

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/obs"
	"repro/internal/ordered"
	"repro/internal/rescache"
	"repro/internal/seq"
)

// This file is the glue between the result cache (internal/rescache) and
// the request path. Every admitted single-end read of a cached request is
// classified by one cache lookup into
//
//	hit    — regions are resident: the record is re-rendered with this
//	         read's own name/qualities and completed immediately (the
//	         streamer can flush it while the request's misses align);
//	joined — an identical sequence is being aligned right now: the read
//	         parks on that leader's flight instead of being aligned, and is
//	         rendered when the leader's regions arrive;
//	leader — first copy of the sequence: it is aligned in one of the
//	         request's scheduler tasks, which fulfills the flight (and
//	         fills the cache) the moment the read's regions exist.
//
// Paired-end requests never come here: pairing rescue and insert-size
// inference are cross-read state, so a pair's records are not a function
// of one read's sequence alone.
//
// Cancellation: once the request's context ends, its tasks complete the
// leaders they have not reached yet unaligned, which aborts their flights;
// duplicates parked there (from this or other requests) are notified and
// retry on a fresh goroutine — re-hitting the cache, joining a newer
// leader, or becoming the new leader themselves — so one caller's
// disconnect never loses another caller's read.

// cachedReq is one single-end request on the cache path. wg counts the
// reads not yet completed (rendered, or dropped after cancellation). Tasks
// and retries poll ctx per read, so a cancelled request needs no watcher
// goroutine: its wait ends when its queued tasks have run.
type cachedReq struct {
	ctx context.Context
	st  *ordered.Writer
	wg  sync.WaitGroup
}

// leader is a cache-leading read: aligning it fulfills fl.
type leader struct {
	rd   *seq.Read
	code []byte
	idx  int // index within the owning request
	fl   *rescache.Flight
}

// alignCached routes one single-end request through the result cache. It
// blocks until every read has completed (hit, fulfilled join, or aligned
// leader), returning ctx.Err() when the context ended first.
func (s *Server) alignCached(ctx context.Context, reads []seq.Read, st *ordered.Writer, span *obs.Span) error {
	a := s.sched.Aligner()
	rq := &cachedReq{ctx: ctx, st: st}
	rq.wg.Add(len(reads))
	leaders := make([]leader, 0, len(reads))
	type hit struct {
		rd   *seq.Read
		code []byte
		idx  int
		regs []core.Region
	}
	var hits []hit
	var keyBuf []byte
	tLookup := time.Now()
	for i := range reads {
		rd := &reads[i]
		code := seq.Encode(rd.Seq)
		keyBuf = rescache.AppendKey(keyBuf[:0], s.optFP, code)
		i := i
		regs, fl, status := s.cache.Lookup(keyBuf, func(regs []core.Region, ok bool) {
			s.waiterDone(rq, rd, i, code, regs, ok)
		})
		switch status {
		case rescache.Hit:
			hits = append(hits, hit{rd: rd, code: code, idx: i, regs: regs})
		case rescache.Joined:
			// The waiter callback owns this read's completion.
		case rescache.Leading:
			leaders = append(leaders, leader{rd: rd, code: code, idx: i, fl: fl})
		}
	}
	s.hists.cacheLookup.Observe(time.Since(tLookup))
	span.Observe("cache", tLookup)
	// Submit the misses before rendering the hits: on a warm request the
	// workers align the misses while this goroutine formats the hits.
	s.submitLeaders(rq, leaders)
	for _, h := range hits {
		st.Complete(h.idx, a.AppendSAM(nil, h.rd, h.code, h.regs))
		rq.wg.Done()
	}
	rq.wg.Wait()
	return ctx.Err()
}

// submitLeaders hands leaders to the worker pool, BatchSize reads per
// task. It runs on request goroutines only: Scheduler.Go may block on the
// bounded task queue, which a worker must never do.
func (s *Server) submitLeaders(rq *cachedReq, ls []leader) {
	for lo := 0; lo < len(ls); lo += s.cfg.BatchSize {
		batch := ls[lo:min(lo+s.cfg.BatchSize, len(ls))]
		s.met.batches.Add(1)
		s.sched.Go(func(ws *core.Workspace) { s.alignLeaders(rq, batch, ws) })
	}
}

// alignLeaders is one scheduler task. Each leader is aligned, its flight
// fulfilled — so parked duplicates unblock before this worker renders
// SAM — and its record emitted. Once the request is cancelled the
// remaining leaders are dropped unaligned, aborting their flights so
// parked duplicates can retry.
func (s *Server) alignLeaders(rq *cachedReq, ls []leader, ws *core.Workspace) {
	a := s.sched.Aligner()
	for _, l := range ls {
		if rq.ctx.Err() != nil {
			l.fl.Abort()
			rq.wg.Done()
			continue
		}
		regs := a.AlignRead(l.code, ws)
		l.fl.Fulfill(regs)
		t0 := time.Now()
		rq.st.Complete(l.idx, a.AppendSAM(nil, l.rd, l.code, regs))
		ws.Clock.Add(counters.StageSAMForm, time.Since(t0))
		rq.wg.Done()
	}
}

// waiterDone resolves a read that was parked on another read's flight. It
// runs on whatever goroutine resolved the flight (a pipeline worker on
// fulfill or on a cancelled leader's abort), so the retry after an abort
// moves to a fresh goroutine — submitting from a worker could block the
// pool on its own backpressure.
func (s *Server) waiterDone(rq *cachedReq, rd *seq.Read, idx int, code []byte, regs []core.Region, ok bool) {
	if ok {
		// Render even if this request was cancelled meanwhile: the regions
		// exist, emitting is cheap, and the streamer is valid until the
		// handler returns (which waits on wg). Rendering moves off the
		// resolving goroutine when a slot is free — Fulfill runs on the
		// leader's worker, and a hot sequence with many parked duplicates
		// must not turn one pipeline worker into a serial SAM-formatting
		// loop — but the offload is bounded (renderSlots): past the cap we
		// render inline rather than launch an unbounded burst of CPU-bound
		// goroutines against the pool.
		render := func() {
			rq.st.Complete(idx, s.sched.Aligner().AppendSAM(nil, rd, code, regs))
			rq.wg.Done()
		}
		select {
		case s.renderSlots <- struct{}{}:
			go func() {
				defer func() { <-s.renderSlots }()
				render()
			}()
		default:
			render()
		}
		return
	}
	if rq.ctx.Err() != nil {
		rq.wg.Done() // both leader and this waiter abandoned; nothing to retry
		return
	}
	go s.retryRead(rq, rd, idx, code)
}

// retryRead re-dispatches a read whose leader aborted: by the time it runs
// the aborted flight is gone, so the lookup either hits (another leader
// fulfilled first), joins a newer flight, or makes this read the new
// leader and submits it. The read counts in its request's wg, so the
// request — and with it the admission budget Shutdown waits out — stays
// open until the retry completes: the pool cannot close under it.
func (s *Server) retryRead(rq *cachedReq, rd *seq.Read, idx int, code []byte) {
	key := rescache.AppendKey(nil, s.optFP, code)
	regs, fl, status := s.cache.Lookup(key, func(regs []core.Region, ok bool) {
		s.waiterDone(rq, rd, idx, code, regs, ok)
	})
	switch status {
	case rescache.Hit:
		rq.st.Complete(idx, s.sched.Aligner().AppendSAM(nil, rd, code, regs))
		rq.wg.Done()
	case rescache.Joined:
		// The waiter callback owns completion (and further retries).
	case rescache.Leading:
		s.submitLeaders(rq, []leader{{rd: rd, code: code, idx: idx, fl: fl}})
	}
}
