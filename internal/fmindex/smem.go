// SMEM search (paper §4.2, Algorithm 4; BWA's bwt_smem1) and the three-pass
// seeding strategy of BWA-MEM (mem_collect_intv): SMEMs, re-seeding inside
// long SMEMs, and the LAST-like third pass.
package fmindex

// SMEMBuf holds reusable scratch for SMEM search. Allocate one per worker
// and reuse it across reads — this is the paper's §3.2 "few large
// allocations reused across batches" discipline.
type SMEMBuf struct {
	prev, curr, mem []BiInterval
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
	n := len(q)
	if q[x0] > 3 {
		return out, x0 + 1
	}
	if minIntv < 1 {
		minIntv = 1
	}
	prev, curr := buf.prev[:0], buf.curr[:0]

	// Forward pass: extend right from x0, recording the interval each time
	// its size shrinks — those are the distinct right-maximal candidates.
	var ok [4]BiInterval // extension results, reused by both passes
	ik := x.SetIntv(q[x0])
	ik.QBeg, ik.QEnd = int32(x0), int32(x0+1)
	i := x0 + 1
	for ; i < n; i++ {
		if q[i] > 3 { // ambiguous base always terminates extension
			curr = append(curr, ik)
			break
		}
		c := 3 - q[i] // forward extension appends via the complement
		x.Extend(ik, false, &ok)
		if ok[c].S != ik.S {
			curr = append(curr, ik)
			if ok[c].S < minIntv {
				break
			}
		}
		ik = ok[c]
		ik.QEnd = int32(i + 1)
		// Prefetch the buckets the next extension of ik will touch
		// (Algorithm 4 lines 11-12).
		x.prefetchOcc(ik.L - 1)
		x.prefetchOcc(ik.L + ik.S - 1)
	}
	if i == n {
		curr = append(curr, ik)
	}
	ret := int(curr[len(curr)-1].QEnd)
	// Visit longer matches (smaller intervals) first in the backward pass.
	reverseIntervals(curr)
	prev, curr = curr, prev

	// Backward pass: extend every candidate left in lockstep over the same
	// query position; emit a candidate as an SMEM the moment it can no
	// longer be extended, unless a longer candidate is still alive (it
	// would contain this one).
	memStart := len(out)
	for i = x0 - 1; i >= -1; i-- {
		c := -1
		if i >= 0 && q[i] < 4 {
			c = int(q[i])
		}
		curr = curr[:0]
		for j := range prev {
			p := &prev[j]
			if c >= 0 {
				x.Extend(*p, true, &ok)
			}
			if c < 0 || ok[c].S < minIntv {
				if len(curr) == 0 { // no longer candidate is alive
					if len(out) == memStart || i+1 < int(out[len(out)-1].QBeg) {
						m := *p
						m.QBeg = int32(i + 1)
						out = append(out, m)
					}
				}
			} else if len(curr) == 0 || ok[c].S != curr[len(curr)-1].S {
				ok[c].QBeg, ok[c].QEnd = p.QBeg, p.QEnd
				curr = append(curr, ok[c])
				// Prefetch the buckets a future backward extension of this
				// surviving candidate will touch (Algorithm 4 lines 26-27).
				x.prefetchOcc(ok[c].K - 1)
				x.prefetchOcc(ok[c].K + ok[c].S - 1)
			}
		}
		if len(curr) == 0 {
			break
		}
		prev, curr = curr, prev
	}
	reverseIntervals(out[memStart:]) // emitted right-to-left; flip to start order

	buf.prev, buf.curr = prev, curr
	return out, ret
}

// SeedStrategy1 is BWA's third-round seeding (bwt_seed_strategy1): starting
// at x0 it extends forward only, returning the first seed longer than minLen
// whose occurrence count drops below maxIntv. The second return value is the
// resume position, and found reports whether a usable seed was produced.
func (x *Index) SeedStrategy1(q []byte, x0, minLen, maxIntv int) (m BiInterval, next int, found bool) {
	n := len(q)
	if q[x0] > 3 {
		return BiInterval{}, x0 + 1, false
	}
	ik := x.SetIntv(q[x0])
	var ok [4]BiInterval
	for i := x0 + 1; i < n; i++ {
		if q[i] > 3 {
			return BiInterval{}, i + 1, false
		}
		c := 3 - q[i]
		x.Extend(ik, false, &ok)
		if ok[c].S < maxIntv && i-x0 >= minLen {
			m = ok[c]
			m.QBeg, m.QEnd = int32(x0), int32(i+1)
			return m, i + 1, m.S > 0
		}
		ik = ok[c]
	}
	return BiInterval{}, n, false
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
	out = out[:0]
	splitLen := int(float64(opt.MinSeedLen)*opt.SplitFactor + .499)

	// Pass 1: all SMEMs of length >= MinSeedLen.
	for pos := 0; pos < len(q); {
		if q[pos] > 3 {
			pos++
			continue
		}
		buf.mem = buf.mem[:0]
		buf.mem, pos = x.SMEM1(q, pos, 1, buf, buf.mem)
		for _, m := range buf.mem {
			if m.Len() >= opt.MinSeedLen {
				out = append(out, m)
			}
		}
	}

	// Pass 2: re-seed inside long, low-occurrence SMEMs from their middle
	// with a raised minimum interval, to recover seeds masked by repeats.
	oldN := len(out)
	for k := 0; k < oldN; k++ {
		p := out[k]
		if p.Len() < splitLen || p.S > opt.SplitWidth {
			continue
		}
		buf.mem = buf.mem[:0]
		buf.mem, _ = x.SMEM1(q, (int(p.QBeg)+int(p.QEnd))>>1, p.S+1, buf, buf.mem)
		for _, m := range buf.mem {
			if m.Len() >= opt.MinSeedLen {
				out = append(out, m)
			}
		}
	}

	// Pass 3: LAST-like forward-only seeds capped at MaxMemIntv occurrences.
	if opt.MaxMemIntv > 0 {
		for pos := 0; pos < len(q); {
			if q[pos] > 3 {
				pos++
				continue
			}
			m, next, found := x.SeedStrategy1(q, pos, opt.MinSeedLen, opt.MaxMemIntv)
			pos = next
			if found {
				out = append(out, m)
			}
		}
	}

	sortIntervals(out)
	return out
}
