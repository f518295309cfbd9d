package bsw

// Banded global alignment with traceback (a port of BWA's ksw_global2).
// BWA-MEM uses this after seed extension to produce the final CIGAR of each
// alignment region; it is part of the SAM-FORM stage, not one of the three
// hot kernels, but the pipeline needs it to emit output.

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
		buf = appendUint(buf, e>>4)
		buf = append(buf, ops[e&0xf])
	}
	return buf
}

func appendUint(b []byte, v uint32) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [10]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

const minusInf = int32(-(1 << 29))

// Global computes the banded global alignment score of query against target
// and, when withCigar is set, the CIGAR of one optimal alignment. Cells more
// than w off the main diagonal are unreachable.
func Global(p *Params, query, target []byte, w int, withCigar bool) (int, Cigar) {
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
