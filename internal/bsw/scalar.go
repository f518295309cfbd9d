package bsw

// ScalarBuf holds reusable scratch for ExtendScalar; allocate once per worker
// (§3.2: few large allocations, reused).
type ScalarBuf struct {
	h, e []int32
	qp   []int8
}

func (b *ScalarBuf) grow(qlen int) {
	if cap(b.h) < qlen+1 {
		b.h = make([]int32, qlen+1)
		b.e = make([]int32, qlen+1)
	}
	b.h = b.h[:qlen+1]
	b.e = b.e[:qlen+1]
	if cap(b.qp) < 5*qlen {
		b.qp = make([]int8, 5*qlen)
	}
	b.qp = b.qp[:5*qlen]
}

// ExtendScalar is the original BWA-MEM banded extension kernel, a faithful
// port of ksw_extend2: global-at-the-seed, local-at-the-end alignment of
// query against target with initial score h0, a diagonal band of half-width
// w, zero-row abort, z-drop abort, and per-row band shrinking (§5.1).
// ScalarStats, if non-nil, accumulates cell accounting for the experiments.
func ExtendScalar(p *Params, query, target []byte, w, h0 int, buf *ScalarBuf, st *CellStats) ExtResult {
	qlen, tlen := len(query), len(target)
	if buf == nil {
		buf = &ScalarBuf{}
	}
	buf.grow(qlen)
	eh, ee, qp := buf.h, buf.e, buf.qp
	oeDel, eDel := int32(p.ODel+p.EDel), int32(p.EDel)
	oeIns, eIns := int32(p.OIns+p.EIns), int32(p.EIns)

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
	eh[0] = int32(h0)
	if qlen > 0 {
		if int32(h0) > oeIns {
			eh[1] = int32(h0) - oeIns
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
			h1 = int32(h0 - (p.ODel + p.EDel*(i+1)))
			if h1 < 0 {
				h1 = 0
			}
		}
		h1, m, mj := extendRow(eh[beg:end], ee[beg:end], q[beg:end], h1, oeDel, eDel, oeIns, eIns)
		mj += beg
		if st != nil {
			st.ScalarCells += int64(end - beg)
			st.ScalarRows++
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

// extendRow is ExtendScalar's inner loop over one row's band: on entry h[j]
// holds H(i-1,j-1) and e[j] holds E(i,j); on return h[j] holds H(i,j-1) and
// e[j] holds E(i+1,j). h1 enters as H(i,beg-1) and F(i,beg) is 0. It returns
// H of the row's last cell and the row maximum m with its column mj (relative
// to the slice; -1 for an empty row). As a small leaf taking the gap costs
// as arguments, it leaves the register allocator only the recurrence to
// place, where the whole kernel around it spilled several values per cell.
//
//bwalint:hot
func extendRow(h, e []int32, q []int8, h1, oeDel, eDel, oeIns, eIns int32) (int32, int32, int) {
	e, q = e[:len(h)], q[:len(h)]
	f, m, mj := int32(0), int32(0), -1
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

// CellStats accounts for DP work, the basis of the paper's Table 7/8
// instruction analysis.
type CellStats struct {
	ScalarCells int64 // cells computed by the scalar engine
	ScalarRows  int64
}
