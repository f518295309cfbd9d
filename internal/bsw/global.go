package bsw

// Banded global alignment with traceback (a port of BWA's ksw_global2).
// BWA-MEM uses this after seed extension to produce the final CIGAR of each
// alignment region; it is part of the SAM-FORM stage, not one of the three
// hot kernels, but the pipeline needs it to emit output. Most regions align
// without a gap, and Global proves that from the ungapped score alone,
// before any DP. For the rest, the caller already knows roughly what the
// alignment scores, so Global takes that as a floor and prunes, exactly,
// every cell no alignment reaching the floor can pass through (see Global).
//
// The fill runs on AVX-512 as globalJob32 (global_amd64.s) wherever the CPU
// has AVX-512BW: the whole pruned row loop in one call, 16 int32 cells per
// instruction. As in ksw_global, a gap opens from a cell's diagonal score
// M, not from its H. So along a row, F(i,j+1) = max(F(i,j)-eIns,
// M(i,j)-oIns-eIns) is a linear recurrence over values the previous row
// already fixed, and a prefix-max scan computes 16 columns of it at once,
// as extendJob16 does for the extension. The Go fill, globalFill, runs in
// the purego build, on other CPUs and for the jobs globalVecFits refuses;
// both write the same cells and direction bits.

import "strconv"

// CIGAR operation codes, matching BAM conventions.
const (
	CigarMatch = 0 // M
	CigarIns   = 1 // I (consumes query)
	CigarDel   = 2 // D (consumes target)
	CigarSoft  = 4 // S (soft clip; added by the SAM layer)
)

// Cigar is a sequence of length<<4|op entries, as in BAM.
type Cigar []uint32

// PushOp appends length n of operation op, merging with a trailing run of
// the same op.
func (c Cigar) PushOp(op uint32, n int) Cigar {
	if n <= 0 {
		return c
	}
	if len(c) > 0 && c[len(c)-1]&0xf == op {
		c[len(c)-1] += uint32(n) << 4
		return c
	}
	return append(c, uint32(n)<<4|op)
}

// Lens returns the total query and target lengths consumed by the CIGAR.
func (c Cigar) Lens() (qlen, tlen int) {
	for _, e := range c {
		n := int(e >> 4)
		switch e & 0xf {
		case CigarMatch:
			qlen += n
			tlen += n
		case CigarIns, CigarSoft:
			qlen += n
		case CigarDel:
			tlen += n
		}
	}
	return
}

// String renders the CIGAR in SAM text form.
func (c Cigar) String() string { return string(c.AppendTo(make([]byte, 0, len(c)*4))) }

// AppendTo appends the CIGAR in SAM text form ("*" when empty) to buf.
func (c Cigar) AppendTo(buf []byte) []byte {
	if len(c) == 0 {
		return append(buf, '*')
	}
	const ops = "MIDNSHP=X"
	for _, e := range c {
		buf = strconv.AppendUint(buf, uint64(e>>4), 10)
		buf = append(buf, ops[e&0xf])
	}
	return buf
}

const minusInf = int32(-(1 << 29))

// GlobalBuf holds reusable scratch for Global: the direction matrix, the
// score rows, the query profile and the CIGAR. Allocate one per worker, as
// ScalarBuf for ExtendScalar; the Cigar a call returns lives in it until the
// next call.
type GlobalBuf struct {
	z   []uint8
	h   []int32
	e   []int32
	qp  []int8
	cig Cigar
}

// Global computes the banded global alignment score of query against target
// and the CIGAR of one optimal alignment. Cells more than w off the main
// diagonal are unreachable.
//
// When query and target have one length L, the ungapped alignment is tried
// first. Every other global path has at least one insertion and one
// deletion, so it aligns at most L-1 pairs and scores at most
// (L-1)*a - (oIns+eIns) - (oDel+eDel), with a the matrix's largest entry
// (MaxMatch, never below 0). An ungapped score above that bound is the
// unique optimum: no other path ties it, so the DP's direction bits on the
// diagonal all say "diagonal" and its traceback returns the same single M.
// Global then returns it without filling a cell, whatever w and floor are.
// With BWA's defaults the bound is L-15 and a mismatch costs 5 against a
// match, so any read with at most two mismatches takes this path.
//
// Otherwise floor is a score the caller expects the alignment to reach; the
// lower it is, the less is pruned, and minusInf prunes nothing. A cell whose
// score plus the most it could still gain, ub(i,j) = a*min(qlen-1-j,
// tlen-1-i) with a the match score, falls below floor is dead: no path
// through it ends at floor or above, so it is never the maximum, nor a tie
// for the maximum, of a live cell. Only live cells of one row seed the next,
// which confines the work to a corridor around the optimal paths while
// every cell on them, direction bits included, comes out as in the full
// band. A pruned result is therefore exact whenever it reaches floor; when
// it does not, or the end cell is never reached, Global reruns with nothing
// pruned.
func (b *GlobalBuf) Global(p *Params, query, target []byte, w, floor int) (int, Cigar) {
	qlen, tlen := len(query), len(target)
	switch {
	case qlen == 0 && tlen == 0:
		return 0, b.cig[:0]
	case qlen == 0:
		b.cig = b.cig[:0].PushOp(CigarDel, tlen)
		return -(p.ODel + p.EDel*tlen), b.cig
	case tlen == 0:
		b.cig = b.cig[:0].PushOp(CigarIns, qlen)
		return -(p.OIns + p.EIns*qlen), b.cig
	}
	if score, ok := ungapped(p, query, target); ok {
		b.cig = b.cig[:0].PushOp(CigarMatch, qlen)
		return score, b.cig
	}
	w, nCol := b.grow(qlen, tlen, w)
	vec := haveGlobalVec && globalVecFits(p, qlen, tlen)
	if !vec {
		b.qp = resize(b.qp, 5*qlen)
		fillProfile(b.qp, p, query)
	}
	score, ok := b.fill(p, query, target, w, nCol, floor, vec)
	if !ok {
		score, _ = b.fill(p, query, target, w, nCol, int(minusInf), vec)
	}
	b.cig = globalTraceback(b.cig[:0], b.z, qlen, tlen, w, nCol)
	return score, b.cig
}

// grow sizes the rows and the direction matrix for a fill of qlen query
// against tlen target bases with band w. It returns the band, widened to
// at least 1 and to the length difference, without which no global path
// exists, and the direction matrix's row length nCol.
func (b *GlobalBuf) grow(qlen, tlen, w int) (int, int) {
	w = max(w, 1, qlen-tlen, tlen-qlen)
	nCol := min(qlen, 2*w+1)
	b.z = resize(b.z, tlen*nCol) // direction matrix, tlen x nCol
	b.h, b.e = resize(b.h, qlen+1), resize(b.e, qlen+1)
	return w, nCol
}

// fill runs Global's DP once: on globalFillVec when vec, else on the Go
// fill over the query profile in b.qp.
func (b *GlobalBuf) fill(p *Params, query, target []byte, w, nCol, floor int, vec bool) (int, bool) {
	if vec {
		return globalFillVec(p, query, target, w, nCol, floor, b.h, b.e, b.z)
	}
	return globalFill(p, b.qp, target, w, nCol, floor, b.h, b.e, b.z)
}

// ungapped returns the score of aligning query and target base for base
// and whether that is Global's unique optimum: the lengths agree, and the
// score beats every path with a gap (see Global). It stops as soon as the
// bases left cannot lift the score past that bound.
func ungapped(p *Params, query, target []byte) (int, bool) {
	n := len(query)
	if n != len(target) || p.ODel < 0 || p.EDel < 0 || p.OIns < 0 || p.EIns < 0 {
		return 0, false
	}
	a := p.MaxMatch()
	bound := (n-1)*a - (p.OIns + p.EIns) - (p.ODel + p.EDel)
	score := 0
	for j, q := range query {
		score += int(p.Mat[int(target[j])*5+int(q)])
		if score+a*(n-1-j) <= bound {
			return 0, false
		}
	}
	return score, true
}

// globalFill runs Global's DP over the band, pruned by floor, writing the
// direction bits of every computed cell into z. It reports the score of the
// end cell and whether that score is exact: the end cell was reached and
// scored at least floor. This is the Go fill, for the purego build, CPUs
// without AVX-512BW and the jobs globalVecFits refuses. globalRow opens
// E and F from the diagonal score M, as ksw_global does; that makes F a
// prefix-max scan over the row, which globalJob32 computes 16 columns at a
// time, and globalFillVec writes the same h, e, z and result in one call.
func globalFill(p *Params, qp []int8, target []byte, w, nCol, floor int, h, e []int32, z []uint8) (int, bool) {
	qlen, tlen := len(qp)/5, len(target)
	lv := liveBound{qlen: qlen, tlen: tlen, a: p.MaxMatch(), floor: floor}
	oeDel, eDel := int32(p.ODel+p.EDel), int32(p.EDel)
	oeIns, eIns := int32(p.OIns+p.EIns), int32(p.EIns)
	lo, hi := globalTop(p, lv, w, h, e)
	i, end := 0, 0
	for ; i < tlen && lo <= hi; i++ {
		bandBeg, bandEnd := 0, qlen
		if i > w {
			bandBeg = i - w
		}
		if i+w+1 < qlen {
			bandEnd = i + w + 1
		}
		// Cells fed by a live cell of row i-1: columns lo..hi+1.
		beg := max(bandBeg, lo)
		end = min(bandEnd, hi+2)
		if beg >= end {
			return 0, false
		}
		h1, f := minusInf, minusInf
		if beg == 0 {
			h1 = int32(-(p.ODel + p.EDel*(i+1)))
		}
		q := qp[int(target[i])*qlen : int(target[i])*qlen+qlen]
		zi := z[i*nCol-bandBeg : i*nCol-bandBeg+bandEnd]
		h1, f = globalRow(h[beg:end], e[beg:end], q[beg:end], zi[beg:end], h1, f, oeDel, eDel, oeIns, eIns)
		// Past them only F can be live: extend along the row while it is.
		// What the full band would read from h and e there comes from dead
		// cells, so it cannot change a live cell.
		for ; end < bandEnd && lv.live(f, i, end); end++ {
			h[end], e[end] = h1, minusInf
			zi[end] = 2 | 1<<5 // H from F, F extends
			h1, f = f, f-eIns
		}
		h[end], e[end] = h1, minusInf

		// h[j+1] now holds H(i,j). Narrow to the live span for row i+1.
		lo, hi = beg, end-1
		if beg == 0 && lv.live(h[0], i, -1) {
			lo = -1
		} else {
			for lo <= hi && !lv.live(h[lo+1], i, lo) {
				lo++
			}
		}
		for hi >= lo && hi >= 0 && !lv.live(h[hi+1], i, hi) {
			hi--
		}
	}
	score := int(h[qlen])
	return score, i == tlen && end == qlen && score >= floor
}

// liveBound is Global's pruning rule for one call: a match scores at most
// a, so a cell can still end at floor or above only if its score plus a
// times the bases left on the shorter side reaches floor.
type liveBound struct{ qlen, tlen, a, floor int }

// live reports whether a cell in row i (target bases left after it:
// tlen-1-i) and column j (query bases left: qlen-1-j) with score v can
// still end at floor or above.
func (b liveBound) live(v int32, i, j int) bool {
	return int(v)+b.a*min(b.qlen-1-j, b.tlen-1-i) >= b.floor
}

// globalTop sets row -1 of the DP, h[j] = H(-1,j-1) and e[j] = minusInf for
// the j <= w that row 0 reads, and returns its live columns lo..hi (lo > hi
// when none is). They are a prefix of columns -1.., since both score and
// bound fall with j.
func globalTop(p *Params, lv liveBound, w int, h, e []int32) (lo, hi int) {
	h[0], e[0] = 0, minusInf
	for j := 1; j <= lv.qlen && j <= w; j++ {
		h[j] = int32(-(p.OIns + p.EIns*j))
		e[j] = minusInf
	}
	if !lv.live(0, -1, -1) {
		return 0, -2
	}
	lo, hi = -1, -1
	for hi+1 < lv.qlen && hi+1 < w && lv.live(h[hi+2], -1, hi+1) {
		hi++
	}
	return lo, hi
}

// globalVecFits reports whether globalFillVec's int32 lanes hold every
// value of the fill exactly. Every value derives from row -1, h1 or
// minusInf (-2^29) along a path of at most qlen+tlen cells, each step
// falling by at most g = max(128, oDel+eDel, oIns+eIns): an int8 score or a
// gap. With (qlen+tlen+16)*g <= 2^28, and the 16 lanes of eIns the F scan
// subtracts included, the values stay within [-2^30, 2^28], so neither the
// scan nor a threshold (floor clamped to +-2^30, less at most 2^28) wraps.
func globalVecFits(p *Params, qlen, tlen int) bool {
	g := max(128, p.ODel+p.EDel, p.OIns+p.EIns)
	return p.ODel >= 0 && p.EDel >= 0 && p.OIns >= 0 && p.EIns >= 0 && (qlen+tlen+16)*g <= 1<<28
}

// globalJob is globalJob32's argument block: row -1's live span lo..hi in,
// the rows run (-1 when a row had no cell to compute) and the last row's
// end out. A cell (i,j) scoring v is live when v >= max(thrRow + a*i,
// thrCol + a*(j+1)).
type globalJob struct {
	h, e                     *int32 // qlen+1 cells each, row -1 set
	query, target            *byte
	z                        *uint8 // tlen rows of nCol direction bytes
	qlen, tlen, w, nCol      int
	lo, hi                   int
	oeDel, eDel, oeIns, eIns int
	a, thrRow, thrCol        int
	rows, end                int
	mat                      [8][16]int8 // row k: the scores of target base k, as in job16
}

// globalFillVec is globalFill with the row loop in one globalJob32 call
// (global_amd64.s), 16 int32 cells per AVX-512 instruction. For every job
// globalVecFits admits it writes the same h, e and z and returns the same
// result. Clamping floor to +-2^30 keeps every threshold in int32 and
// changes no cell's liveness: no value plus its bound reaches 2^30, and
// none falls below -2^30.
func globalFillVec(p *Params, query, target []byte, w, nCol, floor int, h, e []int32, z []uint8) (int, bool) {
	qlen, tlen := len(query), len(target)
	lv := liveBound{qlen: qlen, tlen: tlen, a: p.MaxMatch(), floor: floor}
	lo, hi := globalTop(p, lv, w, h, e)
	fk := min(max(floor, -1<<30), 1<<30)
	j := globalJob{
		h: &h[0], e: &e[0], query: &query[0], target: &target[0], z: &z[0],
		qlen: qlen, tlen: tlen, w: w, nCol: nCol, lo: lo, hi: hi,
		oeDel: p.ODel + p.EDel, eDel: p.EDel, oeIns: p.OIns + p.EIns, eIns: p.EIns,
		a: lv.a, thrRow: fk - lv.a*(tlen-1), thrCol: fk - lv.a*qlen,
	}
	for k := range 5 {
		copy(j.mat[k][:5], p.Mat[5*k:])
	}
	globalJob32(&j)
	if j.rows < 0 {
		return 0, false
	}
	score := int(h[qlen])
	return score, j.rows == tlen && j.end == qlen && score >= floor
}

// globalRow is Global's inner loop over one row's cells: on entry h[j] holds
// H(i-1,j-1) and e[j] holds E(i,j); on return h[j] holds H(i,j-1), e[j]
// holds E(i+1,j) and z[j] the cell's direction bits: bits 0-1 say whether
// H came from the diagonal (0), E (1) or F (2), bit 2 that E(i+1,j) extends
// E(i,j), bit 5 that F(i,j+1) extends F(i,j). h1 and f enter as H(i,beg-1)
// and F(i,beg) and return as H of the last cell and F one column past it.
//
//bwalint:hot
func globalRow(h, e []int32, q []int8, z []uint8, h1, f, oeDel, eDel, oeIns, eIns int32) (int32, int32) {
	e, q, z = e[:len(h)], q[:len(h)], z[:len(h)]
	for j, m := range h {
		ev := e[j]
		h[j] = h1
		m += int32(q[j])
		hv := max(m, ev)
		fromE, fromF := bit(m < ev), bit(hv <= f) // ties resolve toward F, as in ksw_global
		h1 = max(hv, f)
		eExt, eOpen := ev-eDel, m-oeDel
		fExt, fOpen := f-eIns, m-oeIns
		z[j] = fromE&^fromF | fromF<<1 | bit(eExt > eOpen)<<2 | bit(fExt > fOpen)<<5
		e[j] = max(eExt, eOpen)
		f = max(fExt, fOpen)
	}
	return h1, f
}

// bit is 1 for true and 0 for false; the compiler turns it into a SETcc, which
// keeps the direction bits free of mispredicted branches.
func bit(b bool) uint8 {
	var x uint8
	if b {
		x = 1
	}
	return x
}

// globalTraceback walks Global's direction bits back from the end cell and
// appends the CIGAR to rev, which must be empty.
func globalTraceback(rev Cigar, z []uint8, qlen, tlen, w, nCol int) Cigar {
	// Traceback: a small state machine over the two-bit direction fields
	// (state 0 = in H, 1 = in E/deletion run, 2 = in F/insertion run).
	which := uint8(0)
	i, k := tlen-1, qlen-1
	for i >= 0 && k >= 0 {
		beg := 0
		if i > w {
			beg = i - w
		}
		d := z[i*nCol+(k-beg)]
		which = d >> (which << 1) & 3
		switch which {
		case 0:
			rev = rev.PushOp(CigarMatch, 1)
			i--
			k--
		case 1:
			rev = rev.PushOp(CigarDel, 1)
			i--
		default:
			rev = rev.PushOp(CigarIns, 1)
			k--
		}
	}
	if i >= 0 {
		rev = rev.PushOp(CigarDel, i+1)
	}
	if k >= 0 {
		rev = rev.PushOp(CigarIns, k+1)
	}
	// Reverse the run-length entries.
	for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
		rev[a], rev[b] = rev[b], rev[a]
	}
	return rev
}
