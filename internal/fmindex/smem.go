// SMEM search (paper §4.2, Algorithm 4; BWA's bwt_smem1) and the three-pass
// seeding strategy of BWA-MEM (mem_collect_intv): SMEMs, re-seeding inside
// long SMEMs, and the LAST-like third pass.
//
// All of it is one resumable engine. A read's seeding is a state (SMEMBuf)
// that seedStep advances by one unit of rank work: one forward extension,
// or one query position of a backward sweep, whose candidates are
// independent of each other. CollectIntervalsBatch steps SeedLanes reads
// round-robin, so that many rank-line loads are in flight at once, each
// prefetched one step ahead: Algorithm 4 in software. CollectIntervals,
// SMEM1 and SeedStrategy1 are runs of the same steps over one read, so
// the batch cannot drift from them.
package fmindex

// SeedLanes is how many reads CollectIntervalsBatch steps round-robin,
// chosen from {4, 8, 16} by end-to-end throughput on se101: 4 was slower,
// 16 no faster.
const SeedLanes = 8

// walkKind is what a walk's next step does.
type walkKind uint8

const (
	walkIdle      walkKind = iota // nothing in flight; the last walk's results are ready
	walkFwd                       // SMEM1's forward pass
	walkBwd                       // SMEM1's backward pass
	walkStrategy1                 // SeedStrategy1's forward extension
)

// smemWalk is one SMEM1 or SeedStrategy1 call in flight.
type smemWalk struct {
	q       []byte
	kind    walkKind
	x0      int
	minIntv int // SMEM1's smallest extendable interval; SeedStrategy1's occurrence ceiling
	minLen  int // SeedStrategy1's minimum seed length
	i       int // the query position the next step extends over
	ik      BiInterval
	ok      [4]BiInterval // extension results, reused by every step

	prev, curr []BiInterval // SMEM1's candidates, swapped between positions
	mems       []BiInterval // SMEM1's output, appended to the caller's slice
	memStart   int

	next  int        // where the caller resumes once the walk is done
	seed  BiInterval // SeedStrategy1's seed
	found bool       // SeedStrategy1 produced a usable seed
}

// SMEMBuf is one read's seeding state plus the scratch it reuses. Allocate
// one per worker (CollectIntervalsBatch keeps one per lane) and reuse it
// across reads — the paper's §3.2 "few large allocations reused across
// batches" discipline.
type SMEMBuf struct {
	walk smemWalk
	mem  []BiInterval // the finished SMEM1 walk's output

	q        []byte
	opt      SeedOpts
	splitLen int
	out      []BiInterval
	pass     int // 1..3: the BWA-MEM seeding pass in progress; 4: done
	pos      int // passes 1 and 3: the next start position; pass 2: the next pass-1 seed
	oldN     int // pass 2: how many seeds pass 1 produced

	read int          // CollectIntervalsBatch: the lane's read, or -1
	own  []BiInterval // CollectIntervalsBatch: the lane's reused output
}

// SeedBatchBuf is CollectIntervalsBatch's reusable scratch: one seeding
// state per lane, and one arena holding every read's intervals.
type SeedBatchBuf struct {
	lanes [SeedLanes]SMEMBuf
	ivs   []BiInterval // the batch's intervals, back to back in the order reads finish
	spans [][2]int     // read i's intervals are ivs[spans[i][0]:spans[i][1]]
}

func reverseIntervals(a []BiInterval) {
	for i, j := 0, len(a)-1; i < j; i, j = i+1, j-1 {
		a[i], a[j] = a[j], a[i]
	}
}

// SMEM1 computes all super-maximal exact matches of q that overlap position
// x0, appending them to out ordered by query start. minIntv is the smallest
// interval size (occurrence count) worth extending; seeding uses 1, and
// re-seeding uses the parent SMEM's occurrence count + 1. The second return
// value is the query position at which the caller should resume the SMEM
// sweep (one past the longest forward extension from x0).
//
//bwalint:hot
func (x *Index) SMEM1(q []byte, x0, minIntv int, buf *SMEMBuf, out []BiInterval) ([]BiInterval, int) {
	w := &buf.walk
	x.startSMEM1(w, q, x0, minIntv, out)
	for w.kind != walkIdle && x.stepWalk(w) {
	}
	return w.mems, w.next
}

// startSMEM1 sets w up as SMEM1(q, x0, minIntv, ·, out). A walk from an
// ambiguous base is done at once, with nothing found.
func (x *Index) startSMEM1(w *smemWalk, q []byte, x0, minIntv int, out []BiInterval) {
	w.q, w.mems = q, out
	if q[x0] > 3 {
		w.kind, w.next = walkIdle, x0+1
		return
	}
	w.x0, w.minIntv = x0, max(minIntv, 1)
	w.curr = w.curr[:0]
	w.ik = x.SetIntv(q[x0])
	w.ik.QBeg, w.ik.QEnd = int32(x0), int32(x0+1)
	w.i = x0 + 1
	w.kind = walkFwd
}

// stepWalk runs one step of the walk in flight and reports whether it
// has more.
func (x *Index) stepWalk(w *smemWalk) bool {
	switch w.kind {
	case walkFwd:
		x.forward(w)
	case walkBwd:
		x.backward(w)
	case walkStrategy1:
		x.strategy1(w)
	}
	return w.kind != walkIdle
}

// forward is one step of SMEM1's forward pass: extend right from x0 by one
// base, recording the interval each time its size shrinks — those are the
// distinct right-maximal candidates.
//
//bwalint:hot
func (x *Index) forward(w *smemWalk) {
	if i := w.i; i < len(w.q) && w.q[i] <= 3 {
		c := 3 - w.q[i] // forward extension appends via the complement
		x.Extend(w.ik, false, &w.ok)
		if w.ok[c].S != w.ik.S {
			w.curr = append(w.curr, w.ik)
			if w.ok[c].S < w.minIntv {
				w.startBackward()
				return
			}
		}
		w.ik = w.ok[c]
		w.ik.QEnd = int32(i + 1)
		w.i = i + 1
		// Prefetch the lines the next extension of ik will touch
		// (Algorithm 4 lines 11-12).
		x.prefetchOcc(w.ik.L-1, w.ik.L+w.ik.S-1)
		return
	}
	// The read's end or an ambiguous base, which always terminates
	// extension.
	w.curr = append(w.curr, w.ik)
	w.startBackward()
}

// startBackward ends the forward pass and sets up the backward one.
func (w *smemWalk) startBackward() {
	w.next = int(w.curr[len(w.curr)-1].QEnd)
	// Visit longer matches (smaller intervals) first in the backward pass.
	reverseIntervals(w.curr)
	w.prev, w.curr = w.curr, w.prev
	w.memStart = len(w.mems)
	w.i = w.x0 - 1
	w.kind = walkBwd
}

// backward is one query position of SMEM1's backward pass: extend every
// candidate left in lockstep over position i; emit a candidate as an SMEM
// the moment it can no longer be extended, unless a longer candidate is
// still alive (it would contain this one).
//
//bwalint:hot
func (x *Index) backward(w *smemWalk) {
	i := w.i
	c := -1
	if i >= 0 && w.q[i] < 4 {
		c = int(w.q[i])
	}
	curr, out := w.curr[:0], w.mems
	for j := range w.prev {
		p := &w.prev[j]
		if c >= 0 {
			x.Extend(*p, true, &w.ok)
		}
		if c < 0 || w.ok[c].S < w.minIntv {
			if len(curr) == 0 { // no longer candidate is alive
				if len(out) == w.memStart || i+1 < int(out[len(out)-1].QBeg) {
					m := *p
					m.QBeg = int32(i + 1)
					out = append(out, m)
				}
			}
		} else if len(curr) == 0 || w.ok[c].S != curr[len(curr)-1].S {
			w.ok[c].QBeg, w.ok[c].QEnd = p.QBeg, p.QEnd
			curr = append(curr, w.ok[c])
			// Prefetch the lines a future backward extension of this
			// surviving candidate will touch (Algorithm 4 lines 26-27).
			x.prefetchOcc(w.ok[c].K-1, w.ok[c].K+w.ok[c].S-1)
		}
	}
	w.mems = out
	if len(curr) == 0 {
		w.curr = curr
		reverseIntervals(out[w.memStart:]) // emitted right-to-left; flip to start order
		w.kind = walkIdle
		return
	}
	w.prev, w.curr = curr, w.prev
	w.i = i - 1
}

// SeedStrategy1 is BWA's third-round seeding (bwt_seed_strategy1): starting
// at x0 it extends forward only, returning the first seed longer than minLen
// whose occurrence count drops below maxIntv. The second return value is the
// resume position, and found reports whether a usable seed was produced.
func (x *Index) SeedStrategy1(q []byte, x0, minLen, maxIntv int) (m BiInterval, next int, found bool) {
	var w smemWalk
	x.startStrategy1(&w, q, x0, minLen, maxIntv)
	for w.kind != walkIdle && x.stepWalk(&w) {
	}
	return w.seed, w.next, w.found
}

// startStrategy1 sets w up as SeedStrategy1(q, x0, minLen, maxIntv).
func (x *Index) startStrategy1(w *smemWalk, q []byte, x0, minLen, maxIntv int) {
	w.q, w.seed, w.found = q, BiInterval{}, false
	if q[x0] > 3 {
		w.kind, w.next = walkIdle, x0+1
		return
	}
	w.x0, w.minLen, w.minIntv = x0, minLen, maxIntv
	w.ik = x.SetIntv(q[x0])
	w.i = x0 + 1
	w.kind = walkStrategy1
}

// strategy1 is one forward extension of SeedStrategy1.
//
//bwalint:hot
func (x *Index) strategy1(w *smemWalk) {
	i := w.i
	if i >= len(w.q) || w.q[i] > 3 {
		w.kind, w.next = walkIdle, min(i+1, len(w.q))
		return
	}
	c := 3 - w.q[i]
	x.Extend(w.ik, false, &w.ok)
	if w.ok[c].S < w.minIntv && i-w.x0 >= w.minLen {
		w.seed = w.ok[c]
		w.seed.QBeg, w.seed.QEnd = int32(w.x0), int32(i+1)
		w.found = w.seed.S > 0
		w.kind, w.next = walkIdle, i+1
		return
	}
	w.ik = w.ok[c]
	w.i = i + 1
}

// SeedOpts are the seeding parameters of BWA-MEM (defaults of mem_opt_init).
type SeedOpts struct {
	MinSeedLen  int     // -k: minimum seed length (19)
	SplitFactor float64 // split long SMEMs when longer than MinSeedLen*SplitFactor (1.5)
	SplitWidth  int     // re-seed only SMEMs with at most this many hits (10)
	MaxMemIntv  int     // third-round seeding occurrence ceiling (20; 0 disables)
}

// DefaultSeedOpts returns BWA-MEM's defaults.
func DefaultSeedOpts() SeedOpts {
	return SeedOpts{MinSeedLen: 19, SplitFactor: 1.5, SplitWidth: 10, MaxMemIntv: 20}
}

// CollectIntervals runs the full three-pass seeding of BWA-MEM
// (mem_collect_intv) over one read and returns the seed intervals sorted by
// query start. out is reused if it has capacity.
//
//bwalint:hot
func (x *Index) CollectIntervals(q []byte, opt SeedOpts, buf *SMEMBuf, out []BiInterval) []BiInterval {
	for more := x.beginRead(buf, q, opt, out); more; more = x.seedStep(buf) {
	}
	return buf.finish()
}

// CollectIntervalsBatch is CollectIntervals over every read of qs, stepped
// SeedLanes reads at a time round-robin. outs[i] receives read i's
// intervals, which live in buf until its next use; outs is reused if it
// has capacity.
//
//bwalint:hot
func (x *Index) CollectIntervalsBatch(qs [][]byte, opt SeedOpts, buf *SeedBatchBuf, outs [][]BiInterval) [][]BiInterval {
	return x.collectBatch(qs, opt, buf, SeedLanes, outs)
}

// collectBatch is CollectIntervalsBatch over k lanes: the reads are
// stepped round-robin, one unit of rank work per lane per round, and a
// lane whose read is done takes the next one.
//
//bwalint:hot
func (x *Index) collectBatch(qs [][]byte, opt SeedOpts, buf *SeedBatchBuf, k int, outs [][]BiInterval) [][]BiInterval {
	lanes := buf.lanes[:k]
	buf.ivs = buf.ivs[:0]
	if cap(buf.spans) < len(qs) {
		//bwalint:ignore hotalloc the caller's scratch grows only past its capacity, then is reused
		buf.spans = make([][2]int, len(qs))
	}
	buf.spans = buf.spans[:len(qs)]
	next := 0
	for j := range lanes {
		next = x.admit(buf, &lanes[j], qs, next, opt)
	}
	for live := true; live; {
		live = false
		for j := range lanes {
			s := &lanes[j]
			if s.read < 0 {
				continue
			}
			live = true
			if !x.seedStep(s) {
				buf.keep(s)
				next = x.admit(buf, s, qs, next, opt)
			}
		}
	}
	if cap(outs) < len(qs) {
		//bwalint:ignore hotalloc the caller's result slice grows only past its capacity, then is reused
		outs = make([][]BiInterval, len(qs))
	}
	outs = outs[:len(qs)]
	for i, sp := range buf.spans {
		outs[i] = buf.ivs[sp[0]:sp[1]:sp[1]]
	}
	return outs
}

// admit starts reads from qs[next:] in lane s until one has rank work left
// to step, finishing the others on the spot (an empty or all-N read has
// none). It returns the first read not yet started.
func (x *Index) admit(buf *SeedBatchBuf, s *SMEMBuf, qs [][]byte, next int, opt SeedOpts) int {
	for ; next < len(qs); next++ {
		s.read = next
		if x.beginRead(s, qs[next], opt, s.own) {
			return next + 1
		}
		buf.keep(s)
	}
	s.read = -1
	return next
}

// keep moves lane s's finished read into the arena.
func (buf *SeedBatchBuf) keep(s *SMEMBuf) {
	out := s.finish()
	buf.spans[s.read] = [2]int{len(buf.ivs), len(buf.ivs) + len(out)}
	buf.ivs = append(buf.ivs, out...)
	s.own = out
}

// beginRead starts seeding q into out[:0] and reports whether there is
// rank work to step.
func (x *Index) beginRead(s *SMEMBuf, q []byte, opt SeedOpts, out []BiInterval) bool {
	s.q, s.opt, s.out = q, opt, out[:0]
	s.splitLen = int(float64(opt.MinSeedLen)*opt.SplitFactor + .499)
	s.pass, s.pos = 1, 0
	return x.launch(s)
}

// seedStep runs one step of the read's walk in flight and, when that ends
// the walk, collects its seeds and launches the next. It reports whether
// the read has rank work left.
//
//bwalint:hot
func (x *Index) seedStep(s *SMEMBuf) bool {
	if x.stepWalk(&s.walk) {
		return true
	}
	s.collect()
	return x.launch(s)
}

// collect takes the seeds of the walk that just ended.
func (s *SMEMBuf) collect() {
	w := &s.walk
	if s.pass == 3 {
		s.pos = w.next
		if w.found {
			s.out = append(s.out, w.seed)
		}
		return
	}
	s.mem = w.mems
	for _, m := range s.mem {
		if m.Len() >= s.opt.MinSeedLen {
			s.out = append(s.out, m)
		}
	}
	if s.pass == 1 {
		s.pos = w.next
	}
}

// launch starts the read's next walk and reports whether there is one.
func (x *Index) launch(s *SMEMBuf) bool {
	q, w := s.q, &s.walk
	for {
		switch s.pass {
		case 1:
			// Pass 1: all SMEMs of length >= MinSeedLen.
			for s.pos < len(q) && q[s.pos] > 3 {
				s.pos++
			}
			if s.pos < len(q) {
				x.startSMEM1(w, q, s.pos, 1, s.mem[:0])
				return true
			}
			s.pass, s.pos, s.oldN = 2, 0, len(s.out)
		case 2:
			// Pass 2: re-seed inside long, low-occurrence SMEMs from their
			// middle with a raised minimum interval, to recover seeds
			// masked by repeats.
			for s.pos < s.oldN {
				p := s.out[s.pos]
				s.pos++
				if p.Len() < s.splitLen || p.S > s.opt.SplitWidth {
					continue
				}
				x.startSMEM1(w, q, (int(p.QBeg)+int(p.QEnd))>>1, p.S+1, s.mem[:0])
				if w.kind != walkIdle {
					return true
				}
			}
			s.pass, s.pos = 3, 0
		case 3:
			// Pass 3: LAST-like forward-only seeds capped at MaxMemIntv
			// occurrences.
			for s.pos < len(q) && q[s.pos] > 3 {
				s.pos++
			}
			if s.opt.MaxMemIntv > 0 && s.pos < len(q) {
				x.startStrategy1(w, q, s.pos, s.opt.MinSeedLen, s.opt.MaxMemIntv)
				return true
			}
			s.pass = 4
		default:
			return false
		}
	}
}

// finish sorts the read's intervals and returns them, letting go of the
// read.
func (s *SMEMBuf) finish() []BiInterval {
	sortIntervals(s.out)
	out := s.out
	s.q, s.out = nil, nil
	return out
}
