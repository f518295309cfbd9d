package core

import (
	"slices"
	"strconv"

	"repro/internal/bsw"
	"repro/internal/seq"
)

// SAM flag bits used by the single-end pipeline.
const (
	FlagUnmapped      = 0x4
	FlagReverse       = 0x10
	FlagSecondary     = 0x100
	FlagSupplementary = 0x800
)

// Alignment is one final alignment record (BWA's mem_aln_t). Cigar, MD and
// XA point into the render scratch of the AppendSAM or AppendSAMPair call
// that built the record, and are valid only until that call returns.
type Alignment struct {
	Rid   int // contig index; -1 = unmapped
	Pos   int // 0-based leftmost position on the contig
	IsRev bool
	Mapq  int
	Flag  int
	Cigar bsw.Cigar
	Score int    // AS tag
	Sub   int    // XS tag (-1 = absent)
	NM    int    // NM tag
	MD    []byte // MD tag (empty = absent)
	XA    []byte // XA tag: alternate hits (empty = absent)
}

// render is SAM-FORM's scratch. AppendSAM and AppendSAMPair take one from
// the Aligner's pool per call and return it once the records are written,
// so across reads SAM-FORM reuses these buffers instead of allocating.
// text, xa and cigs are arenas: each record's MD, XA and CIGAR is appended
// and sliced off, and stays put until the call ends.
type render struct {
	global      bsw.GlobalBuf
	rseq, qrev  []byte // genCigar's reference window and reversed query
	text        []byte // MD tags
	xa          []byte // XA tags
	cigs        bsw.Cigar
	alns        []Alignment
	regIdx, ids []int
}

// getRender takes a render scratch from the pool, emptied.
func (a *Aligner) getRender() *render {
	rs, ok := a.renders.Get().(*render)
	if !ok {
		rs = new(render)
	}
	rs.text, rs.xa, rs.cigs, rs.alns = rs.text[:0], rs.xa[:0], rs.cigs[:0], rs.alns[:0]
	return rs
}

// keepCigar copies cig, between clip5 and clip3 soft clips, to the end of
// the CIGAR arena and returns the copy, which outlives the next Global call.
func (rs *render) keepCigar(clip5 int, cig bsw.Cigar, clip3 int) bsw.Cigar {
	n := len(rs.cigs)
	c := rs.cigs[n:].PushOp(bsw.CigarSoft, clip5)
	c = append(c, cig...)
	c = c.PushOp(bsw.CigarSoft, clip3)
	rs.cigs = append(rs.cigs[:n], c...)
	return rs.cigs[n:len(rs.cigs):len(rs.cigs)]
}

// MaxXAHits caps how many alternate hits the XA tag lists (bwa -h).
const MaxXAHits = 5

// inferBW is BWA's infer_bw: the band needed for a global alignment of the
// given lengths to reach the given score.
func inferBW(l1, l2, score, a, q, r int) int {
	if l1 == l2 && l1*a-score < (q+r-a)<<1 {
		return 0
	}
	m := l1
	if l2 < m {
		m = l2
	}
	w := int(float64(m*a-score-q)/float64(r) + 2.)
	d := l1 - l2
	if d < 0 {
		d = -d
	}
	if w < d {
		w = d
	}
	return w
}

// genCigar is bwa_gen_cigar2: global alignment of the clipped query against
// the reference window, with both sequences reversed on the reverse strand
// so indels stay left-aligned in forward coordinates. It also computes the
// NM count and the MD string, which it appends to rs.text; MD names the
// forward reference's bases, so on the reverse strand, where rseq holds the
// reverse complement, it complements them ("TGCAN" in BWA). cig lives in
// rs.global until the next call. floor is the score the caller expects the
// alignment to reach; bsw.Global prunes every cell that cannot end there and
// falls back to the full band when the floor turns out too high, so the
// result does not depend on it.
//
//bwalint:hot
func (a *Aligner) genCigar(rs *render, query []byte, rb, re, w, floor int) (cig bsw.Cigar, score, nm int, md []byte, ok bool) {
	l := a.Ref.Lpac()
	if len(query) == 0 || rb >= re || (rb < l && re > l) {
		return nil, 0, 0, nil, false
	}
	rs.rseq = a.Ref.AppendFetch(rs.rseq[:0], rb, re)
	rseq, qq := rs.rseq, query
	rev := rb >= l
	if rev {
		rs.qrev = reverseBytes(rs.qrev, query)
		qq = rs.qrev
		slices.Reverse(rseq)
	}
	score, cig = rs.global.Global(&a.par3, qq, rseq, w, floor)
	mdBeg := len(rs.text)
	run := 0 // matched bases since the last mismatch or deletion
	qi, ti := 0, 0
	for _, e := range cig {
		n := int(e >> 4)
		switch e & 0xf {
		case bsw.CigarMatch:
			for k := 0; k < n; k++ {
				if qq[qi+k] != rseq[ti+k] || qq[qi+k] > 3 {
					nm++
					rs.text = strconv.AppendInt(rs.text, int64(run), 10)
					rs.text = append(rs.text, mdBase(rseq[ti+k], rev))
					run = 0
				} else {
					run++
				}
			}
			qi += n
			ti += n
		case bsw.CigarIns:
			qi += n
			nm += n
		case bsw.CigarDel:
			rs.text = strconv.AppendInt(rs.text, int64(run), 10)
			rs.text = append(rs.text, '^')
			run = 0
			for k := 0; k < n; k++ {
				rs.text = append(rs.text, mdBase(rseq[ti+k], rev))
			}
			ti += n
			nm += n
		}
	}
	rs.text = strconv.AppendInt(rs.text, int64(run), 10)
	return cig, score, nm, rs.text[mdBeg:], true
}

// mdBase is the MD letter of reference code c, complemented when c comes
// from the reverse-complement strand.
func mdBase(c byte, rev bool) byte {
	if rev {
		c = seq.Comp(c)
	}
	return seq.Base(c)
}

// regToAln converts a region to a final alignment record (mem_reg2aln),
// whose CIGAR and MD it keeps in rs.
//
//bwalint:hot
func (a *Aligner) regToAln(rs *render, qcodes []byte, r *Region) Alignment {
	aln := Alignment{Rid: -1, Sub: -1}
	if r == nil || r.RB < 0 || r.RE < 0 {
		aln.Flag = FlagUnmapped
		return aln
	}
	qb, qe := r.QB, r.QE
	rb, re := r.RB, r.RE
	if r.Secondary < 0 {
		aln.Mapq = a.mapQ(r)
	} else {
		aln.Flag |= FlagSecondary
	}
	o := &a.Opts
	w2 := inferBW(qe-qb, re-rb, r.TrueSc, o.MatchScore, o.ODel, o.EDel)
	if v := inferBW(qe-qb, re-rb, r.TrueSc, o.MatchScore, o.OIns, o.EIns); v > w2 {
		w2 = v
	}
	if w2 > o.W {
		if r.W < w2 {
			w2 = r.W
		}
	}
	lastSc := -(1 << 30)
	var cig bsw.Cigar
	var score, nm int
	var md []byte
	ok := true
	mdBeg := len(rs.text)
	for i := 0; ; {
		if w2 > o.W<<2 {
			w2 = o.W << 2
		}
		rs.text = rs.text[:mdBeg] // drop a narrower try's MD
		cig, score, nm, md, ok = a.genCigar(rs, qcodes[qb:qe], rb, re, w2, r.TrueSc)
		if !ok {
			break
		}
		if score == lastSc || w2 == o.W<<2 {
			break
		}
		lastSc = score
		w2 <<= 1
		i++
		if i >= 3 || score >= r.TrueSc-o.MatchScore {
			break
		}
	}
	if !ok {
		aln.Flag |= FlagUnmapped
		return aln
	}
	aln.NM = nm
	aln.MD = md
	l := a.Ref.Lpac()
	var posPac int
	if rb < l {
		posPac, aln.IsRev = rb, false
	} else {
		posPac, aln.IsRev = 2*l-re, true
	}
	if aln.IsRev {
		aln.Flag |= FlagReverse
	}
	// Squeeze out leading/trailing deletions left by the banded global
	// alignment.
	if len(cig) > 0 {
		if cig[0]&0xf == bsw.CigarDel {
			posPac += int(cig[0] >> 4)
			cig = cig[1:]
		}
		if len(cig) > 0 && cig[len(cig)-1]&0xf == bsw.CigarDel {
			cig = cig[:len(cig)-1]
		}
	}
	// Add soft clips.
	clip5, clip3 := qb, len(qcodes)-qe
	if aln.IsRev {
		clip5, clip3 = clip3, clip5
	}
	aln.Cigar = rs.keepCigar(clip5, cig, clip3)
	rid, off := a.Ref.PosToContig(posPac)
	aln.Rid, aln.Pos = rid, off
	aln.Score = r.Score
	aln.Sub = r.Sub
	return aln
}

// SAMHeader renders the @SQ/@PG header.
func (a *Aligner) SAMHeader() string {
	var b []byte
	for _, c := range a.Ref.Contigs {
		b = append(b, "@SQ\tSN:"...)
		b = append(b, c.Name...)
		b = append(b, "\tLN:"...)
		b = strconv.AppendInt(b, int64(c.Len), 10)
		b = append(b, '\n')
	}
	b = append(b, "@PG\tID:bwamem-go\tPN:bwamem-go\tVN:1.0\n"...)
	return string(b)
}

// selectAlignments applies mem_reg2sam's single-end record selection: skip
// sub-threshold regions, skip secondaries unless OutputAll, mark extra
// primaries as supplementary, and cap their mapq at the first record's.
//
//bwalint:hot
func (a *Aligner) selectAlignments(rs *render, qcodes []byte, regs []Region) []Alignment {
	alns, regIdx := rs.alns[:0], rs.regIdx[:0]
	for k := range regs {
		p := &regs[k]
		if p.Score < a.Opts.ScoreThreshold {
			continue
		}
		if p.Secondary >= 0 && !a.Opts.OutputAll {
			continue
		}
		aln := a.regToAln(rs, qcodes, p)
		if aln.Flag&FlagUnmapped != 0 {
			continue
		}
		if len(alns) > 0 && p.Secondary < 0 {
			aln.Flag |= FlagSupplementary
		}
		if len(alns) > 0 && aln.Mapq > alns[0].Mapq {
			aln.Mapq = alns[0].Mapq
		}
		alns = append(alns, aln)
		regIdx = append(regIdx, k)
	}
	rs.alns, rs.regIdx = alns, regIdx
	// XA: list alternate (secondary) hits on their primary record, as bwa
	// does when their count is small enough to be informative.
	for ai := range alns {
		if alns[ai].Flag&(FlagSecondary|FlagSupplementary) != 0 {
			continue
		}
		alns[ai].XA = a.buildXA(rs, qcodes, regs, regIdx[ai])
	}
	return alns
}

// buildXA renders the XA tag payload (chr,±pos,CIGAR,NM;...) for the
// secondaries of the primary region at index pri into rs.xa.
//
//bwalint:hot
func (a *Aligner) buildXA(rs *render, qcodes []byte, regs []Region, pri int) []byte {
	rs.ids = rs.ids[:0]
	for k := range regs {
		if regs[k].Secondary == pri && regs[k].Score >= a.Opts.ScoreThreshold {
			rs.ids = append(rs.ids, k)
			if len(rs.ids) > MaxXAHits {
				return nil // too repetitive to enumerate
			}
		}
	}
	xaBeg := len(rs.xa)
	for _, k := range rs.ids {
		textLen, cigLen := len(rs.text), len(rs.cigs)
		alt := a.regToAln(rs, qcodes, &regs[k])
		if alt.Flag&FlagUnmapped == 0 {
			b := append(rs.xa, a.Ref.Contigs[alt.Rid].Name...)
			b = append(b, ',')
			if alt.IsRev {
				b = append(b, '-')
			} else {
				b = append(b, '+')
			}
			b = strconv.AppendInt(b, int64(alt.Pos+1), 10)
			b = append(b, ',')
			b = alt.Cigar.AppendTo(b)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(alt.NM), 10)
			rs.xa = append(b, ';')
		}
		// The alternate's own MD and CIGAR are not written anywhere else.
		rs.text, rs.cigs = rs.text[:textLen], rs.cigs[:cigLen]
	}
	return rs.xa[xaBeg:]
}

// AppendSAM renders the SAM record(s) of one read into buf. read holds the
// original ASCII sequence and (optional) qualities; qcodes its numeric
// encoding; regs the aligned regions from AlignSeeded, AlignRead or AlignBatch.
func (a *Aligner) AppendSAM(buf []byte, read *seq.Read, qcodes []byte, regs []Region) []byte {
	rs := a.getRender()
	defer a.renders.Put(rs)
	alns := a.selectAlignments(rs, qcodes, regs)
	if len(alns) == 0 {
		rs.alns = append(alns, Alignment{Rid: -1, Sub: -1, Flag: FlagUnmapped})
		alns = rs.alns
	}
	n := 0
	for i := range alns {
		n += a.recordSize(read, &alns[i], nil)
	}
	buf = slices.Grow(buf, n)
	for i := range alns {
		buf = a.appendRecord(buf, read, &alns[i], nil)
	}
	return buf
}

// recordFixed bounds what appendRecord writes besides its variable-length
// fields: eleven separators, five tag labels, a "*" CIGAR and eight integers
// of at most 11 bytes each (values below 10^10).
const recordFixed = 11 + 5*len("\tNM:i:") + 1 + 8*11

// RecordCap is a capacity to reserve for read's records in a buffer that
// collects many reads' records: AppendSAM's bound for one record with a
// short CIGAR, MD and contig name. A read whose records need more only
// makes AppendSAM grow the buffer.
func RecordCap(read *seq.Read) int {
	return recordFixed + 32 + len(read.Name) + len(read.Seq) + max(len(read.Qual), 1)
}

// recordSize bounds the bytes appendRecord writes for aln, so AppendSAM
// can grow its buffer once per call. A CIGAR operation takes at most 10
// bytes, since its length fits in 28 bits.
func (a *Aligner) recordSize(read *seq.Read, aln, mate *Alignment) int {
	n := recordFixed + len(read.Name) + len(read.Seq) + max(len(read.Qual), 1) +
		10*len(aln.Cigar) + len(aln.MD) + len(aln.XA)
	if aln.Rid >= 0 {
		n += len(a.Ref.Contigs[aln.Rid].Name)
	}
	if mate != nil && mate.Rid >= 0 {
		n += len(a.Ref.Contigs[mate.Rid].Name)
	}
	return n
}

// appendRecord renders one SAM record straight into buf, with RNEXT, PNEXT
// and TLEN describing mate (nil for a single-end read).
//
//bwalint:hot
func (a *Aligner) appendRecord(buf []byte, read *seq.Read, aln, mate *Alignment) []byte {
	buf = append(buf, read.Name...)
	buf = append(buf, '\t')
	buf = strconv.AppendInt(buf, int64(aln.Flag), 10)
	buf = append(buf, '\t')
	if aln.Rid < 0 {
		buf = append(buf, "*\t0\t0\t*"...)
	} else {
		buf = append(buf, a.Ref.Contigs[aln.Rid].Name...)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, int64(aln.Pos+1), 10)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, int64(aln.Mapq), 10)
		buf = append(buf, '\t')
		buf = aln.Cigar.AppendTo(buf)
	}
	buf = appendMateFields(append(buf, '\t'), a, aln, mate)
	buf = append(buf, '\t')
	if aln.IsRev {
		for i := len(read.Seq) - 1; i >= 0; i-- {
			buf = append(buf, seq.Base(seq.Comp(seq.Code(read.Seq[i]))))
		}
		buf = append(buf, '\t')
		if len(read.Qual) > 0 {
			for i := len(read.Qual) - 1; i >= 0; i-- {
				buf = append(buf, read.Qual[i])
			}
		} else {
			buf = append(buf, '*')
		}
	} else {
		buf = append(buf, read.Seq...)
		buf = append(buf, '\t')
		if len(read.Qual) > 0 {
			buf = append(buf, read.Qual...)
		} else {
			buf = append(buf, '*')
		}
	}
	if aln.Rid >= 0 {
		buf = append(buf, "\tNM:i:"...)
		buf = strconv.AppendInt(buf, int64(aln.NM), 10)
		if len(aln.MD) > 0 {
			buf = append(buf, "\tMD:Z:"...)
			buf = append(buf, aln.MD...)
		}
		buf = append(buf, "\tAS:i:"...)
		buf = strconv.AppendInt(buf, int64(aln.Score), 10)
		if aln.Sub >= 0 {
			buf = append(buf, "\tXS:i:"...)
			buf = strconv.AppendInt(buf, int64(aln.Sub), 10)
		}
		if len(aln.XA) > 0 {
			buf = append(buf, "\tXA:Z:"...)
			buf = append(buf, aln.XA...)
		}
	}
	return append(buf, '\n')
}
