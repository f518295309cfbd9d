package bsw

import "unsafe"

// ScalarBuf holds reusable scratch for ExtendScalar; allocate once per worker
// (§3.2: few large allocations, reused). h16/e16 back extendJob16's rows;
// h, e and the query profile qp back the Go row.
type ScalarBuf struct {
	h, e     []int32
	h16, e16 []int16
	qp       []int8
}

func resize[T uint8 | int8 | int16 | int32](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (b *ScalarBuf) grow(qlen int) {
	b.h, b.e, b.qp = resize(b.h, qlen+1), resize(b.e, qlen+1), resize(b.qp, 5*qlen)
}

// row16Fits reports whether every value of a job provably fits int16: with
// h0 >= 0, H, E, F and M stay within [-128, h0+qlen*match], which Fits16
// bounds; the columns fit; and the gap costs are small enough that neither
// the open+extend sums nor extendJob16's 32*eIns wrap.
func row16Fits(p *Params, query []byte, h0 int) bool {
	const maxGap = 1<<10 - 1
	return h0 >= 0 && len(query) < 1<<15 && p.Fits16(&Job{Query: query, H0: h0}) &&
		uint(p.ODel) <= maxGap && uint(p.EDel) <= maxGap && uint(p.OIns) <= maxGap && uint(p.EIns) <= maxGap
}

// ExtendScalar is the original BWA-MEM banded extension kernel, a faithful
// port of ksw_extend2: global-at-the-seed, local-at-the-end alignment of
// query against target with initial score h0, a diagonal band of half-width
// w, zero-row abort, z-drop abort, and per-row band shrinking (§5.1).
// st, if non-nil, accumulates cell accounting for the experiments.
// A job runs as one extendJob16 call (AVX-512BW) when the CPU has it and the
// job fits int16, and on the Go row over int32 cells otherwise; the result
// is the same.
func ExtendScalar(p *Params, query, target []byte, w, h0 int, buf *ScalarBuf, st *CellStats) ExtResult {
	if buf == nil {
		buf = &ScalarBuf{}
	}
	w = clampBand(p, len(query), w)
	if haveJob16 && row16Fits(p, query, h0) {
		return extend16(p, query, target, w, h0, buf, st)
	}
	return extendGo(p, query, target, w, h0, buf, st, 0)
}

// row16Lanes is the number of int16 cells extendJob16 computes per step.
const row16Lanes = 32

// clampBand narrows the band to the widest gap that can still pay off.
func clampBand(p *Params, qlen, w int) int {
	maxSc := p.MaxMatch()
	maxIns := int(float64(qlen*maxSc+p.EndBonus-p.OIns)/float64(p.EIns) + 1)
	if maxIns < 1 {
		maxIns = 1
	}
	if w > maxIns {
		w = maxIns
	}
	maxDel := int(float64(qlen*maxSc+p.EndBonus-p.ODel)/float64(p.EDel) + 1)
	if maxDel < 1 {
		maxDel = 1
	}
	if w > maxDel {
		w = maxDel
	}
	return w
}

// fillProfile writes the query profile of the Go rows into qp, which holds
// 5*len(query) cells: qp[k*qlen+j] = Mat[k][query[j]].
func fillProfile(qp []int8, p *Params, query []byte) {
	for k, i := 0, 0; k < 5; k++ {
		row := p.Mat[k*5 : k*5+5]
		for _, c := range query {
			qp[i] = row[c]
			i++
		}
	}
}

// firstRow sets row -1 of the DP: H falls from h0 by the insertion costs
// until it reaches 0, and E is 0.
func firstRow[T int16 | int32](eh, ee []T, h0, oeIns, eIns int) {
	clear(eh)
	clear(ee)
	eh[0] = T(h0)
	if len(eh) > 1 {
		if h0 > oeIns {
			eh[1] = T(h0 - oeIns)
		}
		for j := 2; j < len(eh) && eh[j-1] > T(eIns); j++ {
			eh[j] = eh[j-1] - T(eIns)
		}
	}
}

// job16 is extendJob16's argument block: the job, the running state it
// shares with the result, and the counts. mat[k] holds matrix row k (the
// target base) in its first five bytes, so a row's scores are one byte
// shuffle of the query codes.
type job16 struct {
	h, e                     *int16 // row -1 on entry, qlen+1 cells each
	query, target            *byte
	qlen, tlen, w            int
	h1                       int // h0 - oDel - eDel*(i+1) for the next row i
	oeDel, eDel, oeIns, eIns int
	zdrop                    int
	max, maxI, maxJ          int
	maxIE, gscore, maxOff    int
	cells, rows, steps       int
	mat                      [8][16]int8
}

// extend16 is ExtendScalar as one extendJob16 call over int16 cells.
func extend16(p *Params, query, target []byte, w, h0 int, buf *ScalarBuf, st *CellStats) ExtResult {
	qlen := len(query)
	buf.h16, buf.e16 = resize(buf.h16, qlen+1), resize(buf.e16, qlen+1)
	firstRow(buf.h16, buf.e16, h0, p.OIns+p.EIns, p.EIns)
	j := job16{
		h: &buf.h16[0], e: &buf.e16[0],
		query: unsafe.SliceData(query), target: unsafe.SliceData(target),
		qlen: qlen, tlen: len(target), w: w,
		h1:    h0 - p.ODel - p.EDel,
		oeDel: p.ODel + p.EDel, eDel: p.EDel, oeIns: p.OIns + p.EIns, eIns: p.EIns,
		zdrop: p.Zdrop,
		max:   h0, maxI: -1, maxJ: -1, maxIE: -1, gscore: -1,
	}
	for k := range 5 {
		copy(j.mat[k][:5], p.Mat[5*k:])
	}
	extendJob16(&j)
	if st != nil {
		st.ScalarCells += int64(j.cells)
		st.ScalarRows += int64(j.rows)
		st.VectorCells += int64(j.cells)
		st.VectorSteps += int64(j.steps)
	}
	return ExtResult{
		Score: j.max, QLE: j.maxJ + 1, TLE: j.maxI + 1,
		GTLE: j.maxIE + 1, GScore: j.gscore, MaxOff: j.maxOff,
	}
}

// extendGo is ExtendScalar on the Go row over int32 cells, for the jobs
// row16Fits refuses, for CPUs without AVX-512BW and for the purego build. w
// is already clamped. lanes > 0 also counts every row as vector steps of
// that many cells, the accounting extendJob16 reports, for tests to hold
// the kernel to.
//
//bwalint:hot row driver: band clamp, aborts and band shrink around each row
func extendGo(p *Params, query, target []byte, w, h0 int, buf *ScalarBuf, st *CellStats, lanes int) ExtResult {
	qlen, tlen := len(query), len(target)
	//bwalint:ignore hotalloc the caller's scratch grows only when qlen exceeds its capacity, then is reused
	buf.grow(qlen)
	eh, ee, qp := buf.h, buf.e, buf.qp
	oeDel, eDel := int32(p.ODel+p.EDel), int32(p.EDel)
	oeIns, eIns := int32(p.OIns+p.EIns), int32(p.EIns)

	fillProfile(qp, p, query)
	firstRow(eh, ee, h0, p.OIns+p.EIns, p.EIns)

	max, maxI, maxJ := h0, -1, -1
	maxIE, gscore := -1, -1
	maxOff := 0
	beg, end := 0, qlen
	for i := 0; i < tlen; i++ {
		q := qp[int(target[i])*qlen : int(target[i])*qlen+qlen]
		if beg < i-w {
			beg = i - w
		}
		if end > i+w+1 {
			end = i + w + 1
		}
		if end > qlen {
			end = qlen
		}
		var h1 int32
		if beg == 0 {
			if v := h0 - (p.ODel + p.EDel*(i+1)); v > 0 {
				h1 = int32(v)
			}
		}
		h1, m, mj := extendRow(eh[beg:end], ee[beg:end], q[beg:end], h1, oeDel, eDel, oeIns, eIns)
		mj += beg
		if st != nil {
			st.ScalarCells += int64(end - beg)
			st.ScalarRows++
			if lanes > 0 {
				st.VectorCells += int64(end - beg)
				st.VectorSteps += int64((end - beg + lanes - 1) / lanes)
			}
		}
		eh[end], ee[end] = h1, 0
		if end == qlen {
			if gscore <= int(h1) { // ties prefer the later row
				maxIE, gscore = i, int(h1)
			}
		}
		if m == 0 {
			break
		}
		if int(m) > max {
			max, maxI, maxJ = int(m), i, mj
			off := mj - i
			if off < 0 {
				off = -off
			}
			if off > maxOff {
				maxOff = off
			}
		} else if p.Zdrop > 0 {
			di, dj := i-maxI, mj-maxJ
			if di > dj {
				if max-int(m)-(di-dj)*p.EDel > p.Zdrop {
					break
				}
			} else {
				if max-int(m)-(dj-di)*p.EIns > p.Zdrop {
					break
				}
			}
		}
		// Band adjustment for the next row: shrink to the non-zero span.
		j := beg
		for ; j < end && eh[j] == 0 && ee[j] == 0; j++ {
		}
		beg = j
		for j = end; j >= beg && eh[j] == 0 && ee[j] == 0; j-- {
		}
		if j+2 < qlen {
			end = j + 2
		} else {
			end = qlen
		}
	}
	return ExtResult{
		Score: max, QLE: maxJ + 1, TLE: maxI + 1,
		GTLE: maxIE + 1, GScore: gscore, MaxOff: maxOff,
	}
}

// extendRow is the Go row, extendGo's inner loop over one row's band: on
// entry h[j] holds H(i-1,j-1) and e[j] holds E(i,j); on return h[j]
// holds H(i,j-1) and e[j] holds E(i+1,j). h1 enters as H(i,beg-1) and
// F(i,beg) is 0. It returns H of the row's last cell and the row maximum m
// with its column mj (relative to the slice; -1 for an empty row). As a
// small leaf taking the gap costs as arguments, it leaves the register
// allocator only the recurrence to place, where the whole kernel around it
// spilled several values per cell.
//
//bwalint:hot
func extendRow(h, e []int32, q []int8, h1, oeDel, eDel, oeIns, eIns int32) (int32, int32, int) {
	e, q = e[:len(h)], q[:len(h)]
	var f, m int32
	mj := -1
	for j, M := range h {
		ev := e[j]
		h[j] = h1
		if M != 0 {
			M += int32(q[j])
		}
		h1 = max(M, ev, f)
		if m <= h1 { // ties prefer the later column, as in ksw_extend2
			m, mj = h1, j
		}
		e[j] = max(ev-eDel, M-oeDel, 0)
		f = max(f-eIns, M-oeIns, 0)
	}
	return h1, m, mj
}

// CellStats accounts for ExtendScalar's DP work, the basis of the paper's
// Tables 6 and 7.
type CellStats struct {
	ScalarCells int64 // cells computed, on either kernel
	ScalarRows  int64
	VectorCells int64 // the share of ScalarCells computed by extendJob16
	VectorSteps int64 // extendJob16's steps of row16Lanes cells, a row's tail step included
}
