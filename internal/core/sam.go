package core

import (
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

// Alignment is one final alignment record (BWA's mem_aln_t).
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
	MD    string // MD tag ("" = absent)
	XA    string // XA tag: alternate hits ("" = absent)
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
// NM count and the MD string. floor is the score the caller expects the
// alignment to reach; bsw.Global prunes every cell that cannot end there and
// falls back to the full band when the floor turns out too high, so the
// result does not depend on it.
func (a *Aligner) genCigar(query []byte, rb, re, w, floor int) (cig bsw.Cigar, score, nm int, md string, ok bool) {
	l := a.Ref.Lpac()
	if len(query) == 0 || rb >= re || (rb < l && re > l) {
		return nil, 0, 0, "", false
	}
	rseq := a.Ref.Fetch(rb, re)
	qq := query
	if rb >= l {
		qq = reverseBytes(nil, query)
		for i, j := 0, len(rseq)-1; i < j; i, j = i+1, j-1 {
			rseq[i], rseq[j] = rseq[j], rseq[i]
		}
	}
	score, cig = bsw.Global(&a.par3, qq, rseq, w, floor)
	var mdBuf []byte
	matchRun := 0
	flushRun := func() {
		mdBuf = strconv.AppendInt(mdBuf, int64(matchRun), 10)
		matchRun = 0
	}
	qi, ti := 0, 0
	for _, e := range cig {
		n := int(e >> 4)
		switch e & 0xf {
		case bsw.CigarMatch:
			for k := 0; k < n; k++ {
				if qq[qi+k] != rseq[ti+k] || qq[qi+k] > 3 {
					nm++
					flushRun()
					mdBuf = append(mdBuf, seq.Base(rseq[ti+k]))
				} else {
					matchRun++
				}
			}
			qi += n
			ti += n
		case bsw.CigarIns:
			qi += n
			nm += n
		case bsw.CigarDel:
			flushRun()
			mdBuf = append(mdBuf, '^')
			for k := 0; k < n; k++ {
				mdBuf = append(mdBuf, seq.Base(rseq[ti+k]))
			}
			ti += n
			nm += n
		}
	}
	flushRun()
	return cig, score, nm, string(mdBuf), true
}

// regToAln converts a region to a final alignment record (mem_reg2aln).
func (a *Aligner) regToAln(qcodes []byte, r *Region) Alignment {
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
	var md string
	ok := true
	for i := 0; ; {
		if w2 > o.W<<2 {
			w2 = o.W << 2
		}
		cig, score, nm, md, ok = a.genCigar(qcodes[qb:qe], rb, re, w2, r.TrueSc)
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
	if qb != 0 || qe != len(qcodes) {
		clip5, clip3 := qb, len(qcodes)-qe
		if aln.IsRev {
			clip5, clip3 = clip3, clip5
		}
		var full bsw.Cigar
		full = full.PushOp(bsw.CigarSoft, clip5)
		full = append(full, cig...)
		full = full.PushOp(bsw.CigarSoft, clip3)
		cig = full
	}
	aln.Cigar = cig
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
func (a *Aligner) selectAlignments(qcodes []byte, regs []Region) []Alignment {
	var alns []Alignment
	regIdx := []int{}
	for k := range regs {
		p := &regs[k]
		if p.Score < a.Opts.ScoreThreshold {
			continue
		}
		if p.Secondary >= 0 && !a.Opts.OutputAll {
			continue
		}
		aln := a.regToAln(qcodes, p)
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
	// XA: list alternate (secondary) hits on their primary record, as bwa
	// does when their count is small enough to be informative.
	for ai := range alns {
		if alns[ai].Flag&(FlagSecondary|FlagSupplementary) != 0 {
			continue
		}
		alns[ai].XA = a.buildXA(qcodes, regs, regIdx[ai])
	}
	return alns
}

// buildXA renders the XA tag payload (chr,±pos,CIGAR,NM;...) for the
// secondaries of the primary region at index pri.
func (a *Aligner) buildXA(qcodes []byte, regs []Region, pri int) string {
	var ids []int
	for k := range regs {
		if regs[k].Secondary == pri && regs[k].Score >= a.Opts.ScoreThreshold {
			ids = append(ids, k)
			if len(ids) > MaxXAHits {
				return "" // too repetitive to enumerate
			}
		}
	}
	if len(ids) == 0 {
		return ""
	}
	var b []byte
	for _, k := range ids {
		alt := a.regToAln(qcodes, &regs[k])
		if alt.Flag&FlagUnmapped != 0 {
			continue
		}
		b = append(b, a.Ref.Contigs[alt.Rid].Name...)
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
		b = append(b, ';')
	}
	return string(b)
}

// AppendSAM renders the SAM record(s) of one read into buf. read holds the
// original ASCII sequence and (optional) qualities; qcodes its numeric
// encoding; regs the aligned regions from AlignRead/AlignBatch.
func (a *Aligner) AppendSAM(buf []byte, read *seq.Read, qcodes []byte, regs []Region) []byte {
	alns := a.selectAlignments(qcodes, regs)
	if len(alns) == 0 {
		return a.appendRecord(buf, read, Alignment{Rid: -1, Sub: -1, Flag: FlagUnmapped}, nil)
	}
	for i := range alns {
		buf = a.appendRecord(buf, read, alns[i], nil)
	}
	return buf
}

// appendRecord renders one SAM record straight into buf, with RNEXT, PNEXT
// and TLEN describing mate (nil for a single-end read).
func (a *Aligner) appendRecord(buf []byte, read *seq.Read, aln Alignment, mate *Alignment) []byte {
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
	buf = appendMateFields(append(buf, '\t'), a, &aln, mate)
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
		if aln.MD != "" {
			buf = append(buf, "\tMD:Z:"...)
			buf = append(buf, aln.MD...)
		}
		buf = append(buf, "\tAS:i:"...)
		buf = strconv.AppendInt(buf, int64(aln.Score), 10)
		if aln.Sub >= 0 {
			buf = append(buf, "\tXS:i:"...)
			buf = strconv.AppendInt(buf, int64(aln.Sub), 10)
		}
		if aln.XA != "" {
			buf = append(buf, "\tXA:Z:"...)
			buf = append(buf, aln.XA...)
		}
	}
	return append(buf, '\n')
}
