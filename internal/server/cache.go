package server

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ordered"
	"repro/internal/rescache"
	"repro/internal/seq"
)

// This file is the glue between the result cache (internal/rescache) and
// the request path. The cache sits between admission and the coalescer:
// every admitted single-end read is classified by one cache lookup into
//
//	hit    — regions are resident: the record is re-rendered with this
//	         read's own name/qualities and completed immediately, without
//	         waiting for a batch slot (the streamer can flush it while the
//	         rest of the request is still being dispatched);
//	joined — an identical sequence is being aligned right now: the read
//	         parks on that leader's flight instead of entering the batch
//	         queue, and is rendered when the leader's regions arrive;
//	leader — first copy of the sequence: it enters the coalescer as usual,
//	         carrying an onRegs hook that fulfills the flight (and fills
//	         the cache) the moment its batch's alignment completes.
//
// Paired-end requests never come here: pairing rescue and insert-size
// inference are cross-read state, so a pair's records are not a function
// of one read's sequence alone.
//
// Cancellation: a cancelled request's leader reads are evicted from the
// coalescer, which aborts their flights; duplicates parked there (from
// this or other requests) are notified and retry on a fresh goroutine —
// re-hitting the cache, joining a newer leader, or becoming the new
// leader themselves — so one caller's disconnect never loses another
// caller's read.

// alignCached routes one single-end request through the result cache. It
// blocks until every read has completed (hit, fulfilled join, or aligned
// leader) or ctx ends, mirroring coalescer.Align's contract.
func (s *Server) alignCached(ctx context.Context, reads []seq.Read, st *ordered.Writer, span *obs.Span) error {
	a := s.sched.Aligner()
	rst := &reqState{}
	var wg sync.WaitGroup
	wg.Add(len(reads))
	leaders := make([]pendRead, 0, len(reads))
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
			s.waiterDone(rd, i, code, regs, ok, st, rst, &wg)
		})
		switch status {
		case rescache.Hit:
			// Defer rendering until the leaders are enqueued: on a large
			// warm request the pipeline should start on the misses while
			// this goroutine formats the hit records.
			hits = append(hits, hit{rd: rd, code: code, idx: i, regs: regs})
		case rescache.Joined:
			// The waiter callback owns this read's completion.
		case rescache.Leading:
			leaders = append(leaders, s.leaderItem(rd, i, code, fl, st, rst, &wg))
		}
	}
	s.hists.cacheLookup.Observe(time.Since(tLookup))
	span.Observe("cache", tLookup)
	err := s.coal.Enqueue(leaders)
	if err != nil {
		// Closed coalescer (post-drain; unreachable for admitted requests,
		// which hold the admission budget Shutdown waits out). Abort the
		// leaders so their wg slots free and parked duplicates elsewhere
		// retry rather than hang, release the hit slots without emitting
		// (no bytes on the wire lets finishStream report the 503), and
		// mark the request failed.
		rst.failed.Store(true)
		for i := range leaders {
			leaders[i].done(false)
		}
		for range hits {
			wg.Done()
		}
	} else {
		for _, h := range hits {
			st.Complete(h.idx, a.AppendSAM(nil, h.rd, h.code, h.regs))
			wg.Done()
		}
	}
	if werr := s.coal.waitReads(ctx, rst, &wg); werr != nil {
		return werr
	}
	if err == nil && rst.failed.Load() {
		// A retried leader hit the closed coalescer after the initial
		// enqueue succeeded: the response is missing records, so the
		// request must not report success.
		err = errDraining
	}
	return err
}

// leaderItem builds the coalescer item for a cache-leading read: its
// alignment fulfills fl (unblocking every parked duplicate and making the
// regions resident), and a drop — cancellation before its batch ran —
// aborts fl so duplicates can retry.
func (s *Server) leaderItem(rd *seq.Read, idx int, code []byte, fl *rescache.Flight,
	st *ordered.Writer, rst *reqState, wg *sync.WaitGroup) pendRead {
	return pendRead{
		rd: rd, code: code, idx: idx,
		emit:   st.Complete,
		onRegs: fl.Fulfill,
		done: func(aligned bool) {
			if !aligned {
				fl.Abort()
			}
			wg.Done()
		},
		st: rst,
	}
}

// waiterDone resolves a read that was parked on another read's flight. It
// runs on whatever goroutine resolved the flight (a pipeline worker on
// fulfill, an evicting/cancelling goroutine on abort), so the retry after
// an abort moves to a fresh goroutine — re-entering the coalescer from a
// worker could block the pool on its own backpressure.
func (s *Server) waiterDone(rd *seq.Read, idx int, code []byte, regs []core.Region, ok bool,
	st *ordered.Writer, rst *reqState, wg *sync.WaitGroup) {
	if ok {
		// Render even if this request was cancelled meanwhile: the regions
		// exist, emitting is cheap, and the streamer is valid until the
		// handler returns (which waits on wg). Rendering moves off the
		// resolving goroutine when a slot is free — Fulfill runs on the
		// leader's batch worker, and a hot sequence with many parked
		// duplicates must not turn one pipeline worker into a serial
		// SAM-formatting loop — but the offload is bounded (renderSlots):
		// past the cap we render inline rather than launch an unbounded
		// burst of CPU-bound goroutines against the pool.
		render := func() {
			st.Complete(idx, s.sched.Aligner().AppendSAM(nil, rd, code, regs))
			wg.Done()
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
	if rst.cancelled.Load() {
		wg.Done() // both leader and this waiter abandoned; nothing to retry
		return
	}
	go s.retryRead(rd, idx, code, st, rst, wg)
}

// retryRead re-dispatches a read whose leader aborted: by the time it runs
// the aborted flight is gone, so the lookup either hits (another leader
// fulfilled first), joins a newer flight, or makes this read the new
// leader and enqueues it.
func (s *Server) retryRead(rd *seq.Read, idx int, code []byte,
	st *ordered.Writer, rst *reqState, wg *sync.WaitGroup) {
	key := rescache.AppendKey(nil, s.optFP, code)
	regs, fl, status := s.cache.Lookup(key, func(regs []core.Region, ok bool) {
		s.waiterDone(rd, idx, code, regs, ok, st, rst, wg)
	})
	switch status {
	case rescache.Hit:
		st.Complete(idx, s.sched.Aligner().AppendSAM(nil, rd, code, regs))
		wg.Done()
	case rescache.Joined:
		// The waiter callback owns completion (and further retries).
	case rescache.Leading:
		item := s.leaderItem(rd, idx, code, fl, st, rst, wg)
		if err := s.coal.Enqueue([]pendRead{item}); err != nil {
			rst.failed.Store(true) // surfaced by alignCached after waitReads
			item.done(false)
			return
		}
		// Close the race with this request's own cancellation: waitReads
		// may have evicted the request's reads after our cancelled-check
		// but before this Enqueue landed, which would leave this item
		// parked until the next flush. Re-checking after the enqueue
		// guarantees one of the two evicts sees it.
		if rst.cancelled.Load() {
			s.coal.evict(rst)
		}
	}
}
