package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/obs"
	"repro/internal/ordered"
	"repro/internal/rescache"
	"repro/internal/seq"
)

// This file is the single-end request path, with the result cache
// (internal/rescache) on or off. One classify pass sorts every read of
// the request into
//
//	hit      — regions are resident: the record is re-rendered with this
//	           read's own name/qualities on the request goroutine while
//	           the pool aligns the misses, so hits stream out first;
//	first    — the first non-resident copy of a sequence in this request:
//	           it is aligned in one of the request's scheduler tasks,
//	           which Puts its regions and renders it;
//	follower — a later copy of a first copy's sequence in this request:
//	           the same task renders it from the first copy's regions.
//
// With the cache off every read is a first copy without followers, so the
// tasks are exactly pipeline.RunStreamOn's batches. Requests do not
// coordinate: a sequence two requests miss on at the same time is aligned
// by both, and both renderings are the same bytes.
//
// Paired-end requests never come here: pairing rescue and insert-size
// inference are cross-read state, so a pair's records are not a function
// of one read's sequence alone.

// resultCache is the result cache as the server sees it: the shared LRU
// plus the count of reads rendered from an earlier copy of their sequence
// in the same request.
type resultCache struct {
	*rescache.Cache
	coalesced atomic.Int64
}

// cacheStats is the LRU's snapshot plus the server's coalesced count.
type cacheStats struct {
	rescache.Stats
	Coalesced int64
}

// Stats returns the counters /metrics reports.
func (c *resultCache) Stats() cacheStats {
	return cacheStats{Stats: c.Cache.Stats(), Coalesced: c.coalesced.Load()}
}

// firstCopy is a read the pool aligns, with the indices of the reads that
// share its sequence.
type firstCopy struct {
	idx       int
	code      []byte
	followers []int
}

// alignSingle serves one single-end request. It blocks until every task
// it submitted has run, returning ctx.Err() when the context ended first;
// reads skipped after cancellation stay missing from st.
func (s *Server) alignSingle(ctx context.Context, reads []seq.Read, st *ordered.Writer, span *obs.Span) error {
	firsts := make([]firstCopy, 0, len(reads))
	type hit struct {
		idx  int
		code []byte
		regs []core.Region
	}
	var hits []hit
	tLookup := time.Now()
	if s.cache == nil {
		for i := range reads {
			firsts = append(firsts, firstCopy{idx: i, code: seq.Encode(reads[i].Seq)})
		}
	} else {
		seen := make(map[string]int) // key -> index into firsts
		var key []byte
		coalesced := 0
		for i := range reads {
			code := seq.Encode(reads[i].Seq)
			key = rescache.AppendKey(key[:0], s.optFP, code)
			if f, ok := seen[string(key)]; ok {
				firsts[f].followers = append(firsts[f].followers, i)
				coalesced++
			} else if regs, ok := s.cache.Get(key); ok {
				hits = append(hits, hit{idx: i, code: code, regs: regs})
			} else {
				seen[string(key)] = len(firsts)
				firsts = append(firsts, firstCopy{idx: i, code: code})
			}
		}
		s.cache.coalesced.Add(int64(coalesced))
		s.hists.cacheLookup.Observe(time.Since(tLookup))
		span.Observe("cache", tLookup)
	}
	// Submit the misses before rendering the hits: on a warm request the
	// workers align the misses while this goroutine formats the hits.
	// Scheduler.Go may block on the bounded task queue, which only a
	// request goroutine may do.
	var wg sync.WaitGroup
	for lo := 0; lo < len(firsts) && ctx.Err() == nil; lo += s.cfg.BatchSize {
		batch := firsts[lo:min(lo+s.cfg.BatchSize, len(firsts))]
		s.met.batches.Add(1)
		wg.Add(1)
		s.sched.Go(func(ws *core.Workspace) {
			defer wg.Done()
			s.alignFirsts(ctx, reads, batch, st, ws)
		})
	}
	n := 0
	for _, h := range hits {
		n += core.RecordCap(&reads[h.idx])
	}
	buf := make([]byte, 0, n)
	for _, h := range hits {
		buf = s.complete(st, buf, &reads[h.idx], h.idx, h.code, h.regs)
	}
	wg.Wait()
	return ctx.Err()
}

// alignFirsts is one scheduler task over the first copies fs of reads:
// all are seeded as one batch, then each is extended, its regions Put,
// and it and its followers rendered. Once ctx ends the remaining reads are
// skipped; the seeding step runs to its end.
func (s *Server) alignFirsts(ctx context.Context, reads []seq.Read, fs []firstCopy, st *ordered.Writer, ws *core.Workspace) {
	if ctx.Err() != nil {
		return
	}
	a := s.sched.Aligner()
	codes := make([][]byte, len(fs))
	n := 0
	for i, f := range fs {
		codes[i] = f.code
		n += core.RecordCap(&reads[f.idx]) * (1 + len(f.followers))
	}
	a.SeedBatch(codes, ws)
	// The task's records go into one buffer, handed to st as capped
	// sub-slices and never written again.
	buf := make([]byte, 0, n)
	var key []byte
	for i, f := range fs {
		if ctx.Err() != nil {
			return
		}
		regs := a.AlignSeeded(i, f.code, ws)
		if s.cache != nil {
			key = rescache.AppendKey(key[:0], s.optFP, f.code)
			s.cache.Put(key, regs)
		}
		t0 := time.Now()
		buf = s.complete(st, buf, &reads[f.idx], f.idx, f.code, regs)
		for _, j := range f.followers {
			buf = s.complete(st, buf, &reads[j], j, f.code, regs)
		}
		ws.Clock.Add(counters.StageSAMForm, time.Since(t0))
	}
}

// complete renders read idx's records onto buf and hands them to st as a
// capped sub-slice.
func (s *Server) complete(st *ordered.Writer, buf []byte, read *seq.Read, idx int, code []byte, regs []core.Region) []byte {
	start := len(buf)
	buf = s.sched.Aligner().AppendSAM(buf, read, code, regs)
	st.Complete(idx, buf[start:len(buf):len(buf)])
	return buf
}
