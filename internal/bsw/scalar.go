package bsw

// ScalarBuf holds reusable scratch for ExtendScalar; allocate once per worker
// (§3.2: few large allocations, reused). h16/e16 back the int16 row kernel.
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
// the open+extend sums nor the row kernel's 32*eIns wrap.
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
// Each row runs on extendRow16 (AVX-512BW) when the CPU has it and the job
// fits int16, and on the int32 extendRow otherwise; the result is the same.
func ExtendScalar(p *Params, query, target []byte, w, h0 int, buf *ScalarBuf, st *CellStats) ExtResult {
	if buf == nil {
		buf = &ScalarBuf{}
	}
	qlen := len(query)
	if haveRow16 && row16Fits(p, query, h0) {
		buf.h16, buf.e16 = resize(buf.h16, qlen+1), resize(buf.e16, qlen+1)
		buf.qp = resize(buf.qp, 5*qlen)
		return extend(p, query, target, w, h0, buf.h16, buf.e16, buf.qp, st, row16Lanes, extendRow16)
	}
	buf.grow(qlen)
	return extend(p, query, target, w, h0, buf.h, buf.e, buf.qp, st, 0, extendRow[int32])
}

// row16Lanes is the number of int16 cells extendRow16 computes per step.
const row16Lanes = 32

// extend is ExtendScalar over cells of type T, with row computing each
// row's band in steps of lanes cells (0 for a Go row).
func extend[T int16 | int32](p *Params, query, target []byte, w, h0 int, eh, ee []T, qp []int8, st *CellStats,
	lanes int, row func(h, e []T, q []int8, h1, oeDel, eDel, oeIns, eIns T) (T, T, int)) ExtResult {
	qlen, tlen := len(query), len(target)
	oeDel, eDel := T(p.ODel+p.EDel), T(p.EDel)
	oeIns, eIns := T(p.OIns+p.EIns), T(p.EIns)

	// Query profile: qp[k*qlen+j] = Mat[k][query[j]].
	for k, i := 0, 0; k < 5; k++ {
		row := p.Mat[k*5 : k*5+5]
		for j := 0; j < qlen; j++ {
			qp[i] = row[query[j]]
			i++
		}
	}

	// First row.
	for j := range eh {
		eh[j], ee[j] = 0, 0
	}
	eh[0] = T(h0)
	if qlen > 0 {
		if T(h0) > oeIns {
			eh[1] = T(h0) - oeIns
		}
		for j := 2; j <= qlen && eh[j-1] > eIns; j++ {
			eh[j] = eh[j-1] - eIns
		}
	}

	// Clamp the band to the widest useful gap.
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

	max, maxI, maxJ := h0, -1, -1
	maxIE, gscore := -1, -1
	maxOff := 0
	beg, end := 0, qlen
	//bwalint:hot row driver: band clamp, aborts and band shrink around each row
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
		var h1 T
		if beg == 0 {
			if v := h0 - (p.ODel + p.EDel*(i+1)); v > 0 {
				h1 = T(v)
			}
		}
		h1, m, mj := row(eh[beg:end], ee[beg:end], q[beg:end], h1, oeDel, eDel, oeIns, eIns)
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

// extendRow is ExtendScalar's inner loop over one row's band, over int32
// cells (or int16 ones, as extendRow16 where no assembly kernel is built):
// on entry h[j] holds H(i-1,j-1) and e[j] holds E(i,j); on return h[j]
// holds H(i,j-1) and e[j] holds E(i+1,j). h1 enters as H(i,beg-1) and
// F(i,beg) is 0. It returns H of the row's last cell and the row maximum m
// with its column mj (relative to the slice; -1 for an empty row). As a
// small leaf taking the gap costs as arguments, it leaves the register
// allocator only the recurrence to place, where the whole kernel around it
// spilled several values per cell.
//
//bwalint:hot
func extendRow[T int16 | int32](h, e []T, q []int8, h1, oeDel, eDel, oeIns, eIns T) (T, T, int) {
	e, q = e[:len(h)], q[:len(h)]
	var f, m T
	mj := -1
	for j, M := range h {
		ev := e[j]
		h[j] = h1
		if M != 0 {
			M += T(q[j])
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
	ScalarCells int64 // cells computed, on either row kernel
	ScalarRows  int64
	VectorCells int64 // the share of ScalarCells computed by extendRow16
	VectorSteps int64 // extendRow16's steps of row16Lanes cells, a row's tail step included
}
