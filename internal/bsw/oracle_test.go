package bsw

// Frozen oracles: ExtendScalar and Global exactly as they stood before their
// inner row loops moved into extendRow/globalRow and Global learned to prune
// by a score floor. The fuzz targets require the shipped kernels to agree
// with these bit for bit, cell accounting included.

// refExtendScalar is the original BWA-MEM banded extension kernel, a faithful
// port of ksw_extend2: global-at-the-seed, local-at-the-end alignment of
// query against target with initial score h0, a diagonal band of half-width
// w, zero-row abort, z-drop abort, and per-row band shrinking (§5.1).
// ScalarStats, if non-nil, accumulates cell accounting for the experiments.
func refExtendScalar(p *Params, query, target []byte, w, h0 int, buf *ScalarBuf, st *CellStats) ExtResult {
	qlen, tlen := len(query), len(target)
	if buf == nil {
		buf = &ScalarBuf{}
	}
	buf.grow(qlen)
	eh, ee, qp := buf.h, buf.e, buf.qp
	oeDel := p.ODel + p.EDel
	oeIns := p.OIns + p.EIns

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
		if h0 > oeIns {
			eh[1] = int32(h0 - oeIns)
		}
		for j := 2; j <= qlen && eh[j-1] > int32(p.EIns); j++ {
			eh[j] = eh[j-1] - int32(p.EIns)
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
		f, m, mj := int32(0), int32(0), -1
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
		for j := beg; j < end; j++ {
			// eh[j] = H(i-1,j-1), ee[j] = E(i,j), f = F(i,j), h1 = H(i,j-1).
			M, e := eh[j], ee[j]
			eh[j] = h1 // H(i,j-1) for the next row
			if M != 0 {
				M += int32(q[j])
			}
			h := M
			if h < e {
				h = e
			}
			if h < f {
				h = f
			}
			h1 = h
			if m <= h { // ties prefer the later column, as in ksw_extend2
				m, mj = h, j
			}
			t := M - int32(oeDel)
			if t < 0 {
				t = 0
			}
			e -= int32(p.EDel)
			if e < t {
				e = t
			}
			ee[j] = e // E(i+1,j)
			t = M - int32(oeIns)
			if t < 0 {
				t = 0
			}
			f -= int32(p.EIns)
			if f < t {
				f = t
			}
		}
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

// refGlobal computes the banded global alignment score of query against target
// and, when withCigar is set, the CIGAR of one optimal alignment. Cells more
// than w off the main diagonal are unreachable.
func refGlobal(p *Params, query, target []byte, w int, withCigar bool) (int, Cigar) {
	qlen, tlen := len(query), len(target)
	switch {
	case qlen == 0 && tlen == 0:
		return 0, nil
	case qlen == 0:
		return -(p.ODel + p.EDel*tlen), Cigar(nil).PushOp(CigarDel, tlen)
	case tlen == 0:
		return -(p.OIns + p.EIns*qlen), Cigar(nil).PushOp(CigarIns, qlen)
	}
	oeDel := int32(p.ODel + p.EDel)
	oeIns := int32(p.OIns + p.EIns)
	eDel, eIns := int32(p.EDel), int32(p.EIns)

	if w < 1 {
		w = 1
	}
	// The band must admit the length difference, or no global path exists.
	if d := qlen - tlen; d > 0 && w < d {
		w = d
	} else if d < 0 && w < -d {
		w = -d
	}

	nCol := qlen
	if 2*w+1 < nCol {
		nCol = 2*w + 1
	}
	var z []uint8 // direction matrix, tlen x nCol
	if withCigar {
		z = make([]uint8, tlen*nCol)
	}

	h := make([]int32, qlen+1)
	e := make([]int32, qlen+1)
	qp := make([]int8, 5*qlen)
	for k, i := 0, 0; k < 5; k++ {
		row := p.Mat[k*5 : k*5+5]
		for j := 0; j < qlen; j++ {
			qp[i] = row[query[j]]
			i++
		}
	}

	// First row.
	h[0], e[0] = 0, minusInf
	for j := 1; j <= qlen && j <= w; j++ {
		h[j] = int32(-(p.OIns + p.EIns*j))
		e[j] = minusInf
	}
	for j := w + 1; j <= qlen; j++ {
		h[j], e[j] = minusInf, minusInf
	}

	for i := 0; i < tlen; i++ {
		f := minusInf
		beg, end := 0, qlen
		if i > w {
			beg = i - w
		}
		if i+w+1 < qlen {
			end = i + w + 1
		}
		h1 := minusInf
		if beg == 0 {
			h1 = int32(-(p.ODel + p.EDel*(i+1)))
		}
		q := qp[int(target[i])*qlen : int(target[i])*qlen+qlen]
		var zi []uint8
		if z != nil {
			zi = z[i*nCol : (i+1)*nCol]
		}
		for j := beg; j < end; j++ {
			// h[j] = H(i-1,j-1), e[j] = E(i,j), f = F(i,j), h1 = H(i,j-1).
			m, ev := h[j], e[j]
			h[j] = h1
			m += int32(q[j])
			var d uint8
			hv := m
			if m < ev {
				hv, d = ev, 1
			}
			if hv < f {
				hv = f
			}
			if hv == f { // ties resolve toward F, as in ksw_global
				d = 2
			}
			h1 = hv
			t := m - oeDel
			ev -= eDel
			if ev > t {
				d |= 1 << 2
			} else {
				ev = t
			}
			e[j] = ev
			t = m - oeIns
			f -= eIns
			if f > t {
				d |= 2 << 4
			} else {
				f = t
			}
			if zi != nil {
				zi[j-beg] = d
			}
		}
		h[end], e[end] = h1, minusInf
	}
	score := int(h[qlen])
	if !withCigar {
		return score, nil
	}

	// Traceback: a small state machine over the two-bit direction fields
	// (state 0 = in H, 1 = in E/deletion run, 2 = in F/insertion run).
	var rev Cigar
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
	return score, rev
}
