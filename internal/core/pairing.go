package core

// Paired-end alignment: insert-size inference (BWA's mem_pestat) and mate
// pairing (mem_pair), followed by paired SAM emission. Mate rescue
// (mem_matesw) is not implemented, because it lies outside the kernels the
// paper accelerates; so a pair whose end has no seed stays half-mapped, as
// BWA behaves with rescue disabled.

import (
	"math"
	"slices"
	"sort"
	"strconv"

	"repro/internal/seq"
)

// Additional SAM flag bits for paired-end records.
const (
	FlagPaired     = 0x1
	FlagProperPair = 0x2
	FlagMateUnmap  = 0x8
	FlagMateRev    = 0x20
	FlagFirst      = 0x40
	FlagLast       = 0x80
)

// PenUnpaired is BWA's default penalty for leaving a pair unpaired (-U 17).
const PenUnpaired = 17

// PairStats is the inferred insert-size distribution for FR-oriented pairs
// (mem_pestat's output for the FR direction).
type PairStats struct {
	Mean, Std float64
	Low, High int // acceptable insert range
	Failed    bool
}

// leftmostPos returns the forward-strand leftmost coordinate and strand of
// a region on the doubled reference.
func (a *Aligner) leftmostPos(r *Region) (pos int, isRev bool) {
	l := a.Ref.Lpac()
	if r.RB < l {
		return r.RB, false
	}
	return 2*l - r.RE, true
}

// insertSize computes the outer fragment length implied by two regions if
// they form an FR pair on one contig; ok reports whether they do.
func (a *Aligner) insertSize(r1, r2 *Region) (isize int, ok bool) {
	if r1.Rid != r2.Rid {
		return 0, false
	}
	p1, rev1 := a.leftmostPos(r1)
	p2, rev2 := a.leftmostPos(r2)
	if rev1 == rev2 {
		return 0, false
	}
	// Forward-oriented end must come first.
	fwdPos, revEnd := p1, p2
	var revLen int
	if rev1 {
		fwdPos, revEnd = p2, p1
		revLen = r1.RE - r1.RB
	} else {
		revLen = r2.RE - r2.RB
	}
	isize = revEnd + revLen - fwdPos
	if isize <= 0 {
		return 0, false
	}
	return isize, true
}

// InferPairStats estimates the FR insert-size distribution from the best
// regions of each pair (mem_pestat: interquartile trimming, then mean/std
// of the kept sizes, acceptance range mean ± 4 std).
func (a *Aligner) InferPairStats(regs1, regs2 [][]Region) PairStats {
	var sizes []int
	for i := range regs1 {
		if len(regs1[i]) == 0 || len(regs2[i]) == 0 {
			continue
		}
		r1, r2 := &regs1[i][0], &regs2[i][0]
		// Only confident, unambiguous ends vote (bwa requires unique hits).
		if r1.Secondary >= 0 || r2.Secondary >= 0 || r1.Sub > 0 || r2.Sub > 0 {
			continue
		}
		if sz, ok := a.insertSize(r1, r2); ok {
			sizes = append(sizes, sz)
		}
	}
	if len(sizes) < 8 {
		return PairStats{Failed: true}
	}
	sort.Ints(sizes)
	q := func(f float64) int { return sizes[int(f*float64(len(sizes)-1))] }
	p25, p75 := q(0.25), q(0.75)
	lo := p25 - 3*(p75-p25)
	hi := p75 + 3*(p75-p25)
	var sum, n float64
	for _, s := range sizes {
		if s >= lo && s <= hi {
			sum += float64(s)
			n++
		}
	}
	if n < 4 {
		return PairStats{Failed: true}
	}
	mean := sum / n
	var ss float64
	for _, s := range sizes {
		if s >= lo && s <= hi {
			d := float64(s) - mean
			ss += d * d
		}
	}
	std := math.Sqrt(ss / n)
	if std < 1 {
		std = 1
	}
	ps := PairStats{Mean: mean, Std: std}
	ps.Low = int(mean - 4*std + .499)
	ps.High = int(mean + 4*std + .499)
	if ps.Low < 1 {
		ps.Low = 1
	}
	return ps
}

// pairScore is the pairing bonus of mem_pair: the log-probability of the
// observed insert under the inferred normal, in score units.
func (a *Aligner) pairScore(ps *PairStats, isize int) int {
	ns := (float64(isize) - ps.Mean) / ps.Std
	// .721 = 1/log(4); erfc term is the two-sided tail probability.
	v := .721*math.Log(2*math.Erfc(math.Abs(ns)*math.Sqrt2/2))*float64(a.Opts.MatchScore) + .499
	return int(v)
}

// PairSelection is the outcome of pairing one read pair.
type PairSelection struct {
	Z      [2]int // chosen region index per end; -1 = none
	Score  int    // paired score (with bonus)
	Sub    int    // second-best paired score
	Proper bool
}

// PairRegions picks the best consistent placement of a pair (mem_pair): it
// scans FR-compatible region combinations whose insert lies in the accepted
// range and maximizes score1 + score2 + pairing bonus.
func (a *Aligner) PairRegions(ps *PairStats, regs1, regs2 []Region) (PairSelection, bool) {
	sel := PairSelection{Z: [2]int{-1, -1}, Score: -1 << 30, Sub: -1 << 30}
	if ps.Failed || len(regs1) == 0 || len(regs2) == 0 {
		return sel, false
	}
	// Cap the combination scan like bwa (top hits dominate anyway).
	n1, n2 := len(regs1), len(regs2)
	if n1 > 8 {
		n1 = 8
	}
	if n2 > 8 {
		n2 = 8
	}
	for i := 0; i < n1; i++ {
		for j := 0; j < n2; j++ {
			isize, ok := a.insertSize(&regs1[i], &regs2[j])
			if !ok || isize < ps.Low || isize > ps.High {
				continue
			}
			q := regs1[i].Score + regs2[j].Score + a.pairScore(ps, isize)
			if q > sel.Score {
				sel.Sub = sel.Score
				sel.Score = q
				sel.Z = [2]int{i, j}
			} else if q > sel.Sub {
				sel.Sub = q
			}
		}
	}
	if sel.Z[0] < 0 {
		return sel, false
	}
	sel.Proper = true
	return sel, true
}

// rawPairMapq converts a paired score margin to a mapq ceiling
// (bwa's raw_mapq).
func (a *Aligner) rawPairMapq(score, sub int) int {
	q := int(6.02 * float64(score-sub) / float64(a.Opts.MatchScore) * .25)
	if q > 60 {
		q = 60
	}
	if q < 0 {
		q = 0
	}
	return q
}

// AppendSAMPair renders the two records of one read pair. It applies the
// pairing decision of mem_sam_pe: if the best consistent pair beats the
// best independent placements minus the unpaired penalty, both ends report
// the paired placement with the proper-pair flag; otherwise each end keeps
// its own best placement.
func (a *Aligner) AppendSAMPair(buf []byte, ps *PairStats,
	rd1, rd2 *seq.Read, q1, q2 []byte, regs1, regs2 []Region) []byte {

	rs := a.getRender()
	defer a.renders.Put(rs)
	sel, paired := a.PairRegions(ps, regs1, regs2)
	if paired && sel.Score <= scoreUnOf(regs1, regs2) {
		paired = false
	}

	var aln1, aln2 Alignment
	if paired {
		r1 := regs1[sel.Z[0]]
		r2 := regs2[sel.Z[1]]
		// A secondary region promoted by pairing becomes this end's
		// primary placement (bwa clears secondary status and keeps the
		// old primary's score as the sub-score).
		if r1.Secondary >= 0 {
			r1.Sub, r1.Secondary = regs1[r1.Secondary].Score, -1
		}
		if r2.Secondary >= 0 {
			r2.Sub, r2.Secondary = regs2[r2.Secondary].Score, -1
		}
		aln1 = a.regToAln(rs, q1, &r1)
		aln2 = a.regToAln(rs, q2, &r2)
		// Pairing confidence caps how much an ambiguous end can borrow.
		qPe := a.rawPairMapq(sel.Score, max(sel.Sub, scoreUnOf(regs1, regs2)))
		for _, p := range []*Alignment{&aln1, &aln2} {
			if p.Mapq < qPe {
				boost := p.Mapq + 40
				if qPe < boost {
					boost = qPe
				}
				p.Mapq = boost
			}
		}
	} else {
		aln1 = a.bestAln(rs, q1, regs1)
		aln2 = a.bestAln(rs, q2, regs2)
	}

	decorate := func(this, mate *Alignment, firstFlag int) {
		this.Flag |= FlagPaired | firstFlag
		if mate.Rid < 0 {
			this.Flag |= FlagMateUnmap
		} else if mate.IsRev {
			this.Flag |= FlagMateRev
		}
		if paired {
			this.Flag |= FlagProperPair
		}
	}
	decorate(&aln1, &aln2, FlagFirst)
	decorate(&aln2, &aln1, FlagLast)

	buf = slices.Grow(buf, a.recordSize(rd1, &aln1, &aln2)+a.recordSize(rd2, &aln2, &aln1))
	buf = a.appendRecord(buf, rd1, &aln1, &aln2)
	return a.appendRecord(buf, rd2, &aln2, &aln1)
}

func scoreUnOf(regs1, regs2 []Region) int {
	s := -PenUnpaired
	if len(regs1) > 0 {
		s += regs1[0].Score
	}
	if len(regs2) > 0 {
		s += regs2[0].Score
	}
	return s
}

// bestAln converts the best region (if any passes the threshold) of one end.
func (a *Aligner) bestAln(rs *render, q []byte, regs []Region) Alignment {
	for k := range regs {
		if regs[k].Secondary < 0 && regs[k].Score >= a.Opts.ScoreThreshold {
			return a.regToAln(rs, q, &regs[k])
		}
	}
	return Alignment{Rid: -1, Sub: -1, Flag: FlagUnmapped}
}

// appendMateFields writes one end's RNEXT, PNEXT and TLEN columns; a nil
// or unmapped mate writes "*\t0\t0".
func appendMateFields(buf []byte, a *Aligner, aln, mate *Alignment) []byte {
	if mate == nil || mate.Rid < 0 {
		return append(buf, "*\t0\t0"...)
	}
	if mate.Rid == aln.Rid {
		buf = append(buf, '=')
	} else {
		buf = append(buf, a.Ref.Contigs[mate.Rid].Name...)
	}
	buf = append(buf, '\t')
	buf = strconv.AppendInt(buf, int64(mate.Pos+1), 10)
	buf = append(buf, '\t')
	tlen := 0
	if aln.Rid == mate.Rid && aln.Rid >= 0 {
		_, aEnd := aln.Cigar.Lens()
		_, mEnd := mate.Cigar.Lens()
		left, right := aln.Pos, mate.Pos+mEnd
		if mate.Pos < aln.Pos {
			left, right = mate.Pos, aln.Pos+aEnd
			tlen = -(right - left)
		} else {
			tlen = right - left
		}
		if aln.Pos == mate.Pos && aln.IsRev && !mate.IsRev {
			tlen = -tlen
		}
	}
	return strconv.AppendInt(buf, int64(tlen), 10)
}
