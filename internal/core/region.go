package core

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/bsw"
	"repro/internal/chain"
)

// maxBandTry is BWA's MAX_BAND_TRY: extensions whose best score strays far
// off-diagonal are retried once with a doubled band.
const maxBandTry = 2

// Region is one candidate alignment of a read (BWA's mem_alnreg_t): query
// span [QB,QE) aligned to doubled-reference span [RB,RE).
type Region struct {
	RB, RE    int
	QB, QE    int
	Rid       int
	Score     int // best local extension score
	TrueSc    int // score of the reported (possibly to-end) extension
	Sub       int // second-best overlapping score
	SubN      int // number of suboptimal hits shadowed by this region
	W         int // band width actually used
	SeedCov   int // total length of seeds covered by the region
	Secondary int // index of the region this one is secondary to, or -1
	SeedLen0  int // length of the seed that produced the region
	FracRep   float64
}

func reverseBytes(dst, src []byte) []byte {
	dst = dst[:0]
	for i := len(src) - 1; i >= 0; i-- {
		dst = append(dst, src[i])
	}
	return dst
}

// chainWindow computes the widest reference window any seed of the chain
// could plausibly extend into (mem_chain2aln's rmax computation) and fetches
// that reference slice into dst[:0].
func (a *Aligner) chainWindow(dst []byte, qlen int, c *chain.Chain) (rmax0 int, rseq []byte) {
	l2 := 2 * a.Ref.Lpac()
	rmax0, rmax1 := l2, 0
	for i := range c.Seeds {
		t := &c.Seeds[i]
		b := t.RBeg - (t.QBeg + a.Opts.calMaxGap(t.QBeg))
		e := t.RBeg + t.Len + (qlen - t.QBeg - t.Len) + a.Opts.calMaxGap(qlen-t.QBeg-t.Len)
		if b < rmax0 {
			rmax0 = b
		}
		if e > rmax1 {
			rmax1 = e
		}
	}
	if rmax0 < 0 {
		rmax0 = 0
	}
	if rmax1 > l2 {
		rmax1 = l2
	}
	// Never span the forward/reverse boundary; all seeds share a strand.
	if l := a.Ref.Lpac(); rmax0 < l && l < rmax1 {
		if c.Seeds[0].RBeg < l {
			rmax1 = l
		} else {
			rmax0 = l
		}
	}
	return rmax0, a.Ref.AppendFetch(dst[:0], rmax0, rmax1)
}

// seedOrder returns BWA's srt array: seed indices keyed by score, to be
// processed from best to worst (ties resolved toward the later seed). The
// index in the low 32 bits makes every key unique, so the unstable sort is
// deterministic.
func seedOrder(c *chain.Chain) []uint64 {
	srt := make([]uint64, len(c.Seeds))
	for i := range c.Seeds {
		srt[i] = uint64(c.Seeds[i].Score)<<32 | uint64(i)
	}
	slices.Sort(srt)
	return srt
}

// seedContainedIn returns the index of a previous region that (almost)
// contains seed s, or -1 (the first containment test of mem_chain2aln).
func (a *Aligner) seedContainedIn(regs []Region, s *chain.Seed, qlen int) int {
	for i := range regs {
		p := &regs[i]
		if s.RBeg < p.RB || s.RBeg+s.Len > p.RE || s.QBeg < p.QB || s.QBeg+s.Len > p.QE {
			continue // not fully contained
		}
		if float64(s.Len-p.SeedLen0) > 0.1*float64(qlen) {
			continue // the seed might still yield a better alignment
		}
		qd, rd := s.QBeg-p.QB, s.RBeg-p.RB
		w := a.Opts.calMaxGap(min(qd, rd))
		if p.W < w {
			w = p.W
		}
		if qd-rd < w && rd-qd < w {
			return i
		}
		qd, rd = p.QE-(s.QBeg+s.Len), p.RE-(s.RBeg+s.Len)
		w = a.Opts.calMaxGap(min(qd, rd))
		if p.W < w {
			w = p.W
		}
		if qd-rd < w && rd-qd < w {
			return i
		}
	}
	return -1
}

// hasOverlappingSeed reports whether any longer already-extended seed
// overlaps s off-diagonal (the second containment test: if none does, the
// contained seed is safely skipped).
func hasOverlappingSeed(c *chain.Chain, srt []uint64, k int, s *chain.Seed) bool {
	for i := k + 1; i < len(srt); i++ {
		if srt[i] == 0 {
			continue // that seed was skipped, not extended
		}
		t := &c.Seeds[uint32(srt[i])]
		if float64(t.Len) < float64(s.Len)*0.95 {
			continue
		}
		if s.QBeg <= t.QBeg && s.QBeg+s.Len-t.QBeg >= s.Len>>2 && t.QBeg-s.QBeg != t.RBeg-s.RBeg {
			return true
		}
		if t.QBeg <= s.QBeg && t.QBeg+t.Len-s.QBeg >= s.Len>>2 && s.QBeg-t.QBeg != s.RBeg-t.RBeg {
			return true
		}
	}
	return false
}

// extend runs one banded scalar extension with band-doubling retry. prev0
// seeds the convergence test exactly as mem_chain2aln does (-1 for left
// extensions, the post-left score for right extensions). It returns the
// result and the band width actually used.
func (a *Aligner) extend(buf *bsw.ScalarBuf, par *bsw.Params, qseg, tseg []byte, h0, prev0 int) (bsw.ExtResult, int) {
	var res bsw.ExtResult
	prev := prev0
	aw := a.Opts.W
	for i := 0; i < maxBandTry; i++ {
		aw = a.Opts.W << i
		res = bsw.ExtendScalar(par, qseg, tseg, aw, h0, buf, nil)
		if res.Score == prev || res.MaxOff < (aw>>1)+(aw>>2) {
			break
		}
		prev = res.Score
	}
	return res, aw
}

// newRegion starts a region for seed s of chain c.
func (a *Aligner) newRegion(c *chain.Chain) Region {
	return Region{W: a.Opts.W, Score: -1, TrueSc: -1, Rid: c.Rid, Secondary: -1, FracRep: c.FracRep}
}

// applyLeft folds a left-extension result into the region (mem_chain2aln's
// left-extension epilogue); applyNoLeft covers seeds already touching the
// read start.
func (a *Aligner) applyLeft(reg *Region, s *chain.Seed, res bsw.ExtResult) {
	reg.Score = res.Score
	if res.GScore <= 0 || res.GScore <= res.Score-a.Opts.PenClip5 {
		// Local extension: clip the 5' end.
		reg.QB, reg.RB = s.QBeg-res.QLE, s.RBeg-res.TLE
		reg.TrueSc = res.Score
	} else {
		// To-end extension reaches the start of the read.
		reg.QB, reg.RB = 0, s.RBeg-res.GTLE
		reg.TrueSc = res.GScore
	}
}

func (a *Aligner) applyNoLeft(reg *Region, s *chain.Seed) {
	reg.Score = s.Len * a.Opts.MatchScore
	reg.TrueSc = reg.Score
	reg.QB, reg.RB = 0, s.RBeg
}

// applyRight folds a right-extension result into the region; applyNoRight
// covers seeds already touching the read end.
func (a *Aligner) applyRight(reg *Region, s *chain.Seed, qlen, rmax0, sc0 int, res bsw.ExtResult) {
	qe := s.QBeg + s.Len
	re := s.RBeg + s.Len - rmax0
	reg.Score = res.Score
	if res.GScore <= 0 || res.GScore <= res.Score-a.Opts.PenClip3 {
		reg.QE, reg.RE = qe+res.QLE, rmax0+re+res.TLE
		reg.TrueSc += res.Score - sc0
	} else {
		reg.QE, reg.RE = qlen, rmax0+re+res.GTLE
		reg.TrueSc += res.GScore - sc0
	}
}

func (a *Aligner) applyNoRight(reg *Region, s *chain.Seed, qlen int) {
	reg.QE, reg.RE = qlen, s.RBeg+s.Len
}

// finishRegion computes seed coverage and the final band record.
func finishRegion(reg *Region, s *chain.Seed, c *chain.Chain, aw0, aw1 int) {
	for i := range c.Seeds {
		t := &c.Seeds[i]
		if t.QBeg >= reg.QB && t.QBeg+t.Len <= reg.QE &&
			t.RBeg >= reg.RB && t.RBeg+t.Len <= reg.RE {
			reg.SeedCov += t.Len
		}
	}
	if aw1 > aw0 {
		aw0 = aw1
	}
	reg.W = aw0
	reg.SeedLen0 = s.Len
}

// buildRegion assembles the alignment region of one seed from its left and
// right extensions (the core of mem_chain2aln).
func (a *Aligner) buildRegion(q []byte, s *chain.Seed, c *chain.Chain,
	rmax0 int, rseq []byte, ws *Workspace) Region {
	qlen := len(q)
	reg := a.newRegion(c)
	aw0, aw1 := a.Opts.W, a.Opts.W

	if s.QBeg > 0 { // left extension, on reversed sequences
		ws.qrev = reverseBytes(ws.qrev, q[:s.QBeg])
		ws.trev = reverseBytes(ws.trev, rseq[:s.RBeg-rmax0])
		res, aw := a.extend(&ws.scalar, &a.par5, ws.qrev, ws.trev, s.Len*a.Opts.MatchScore, -1)
		aw0 = aw
		a.applyLeft(&reg, s, res)
	} else {
		a.applyNoLeft(&reg, s)
	}

	if s.QBeg+s.Len != qlen { // right extension
		sc0 := reg.Score
		qe := s.QBeg + s.Len
		re := s.RBeg + s.Len - rmax0
		res, aw := a.extend(&ws.scalar, &a.par3, q[qe:], rseq[re:], sc0, sc0)
		aw1 = aw
		a.applyRight(&reg, s, qlen, rmax0, sc0, res)
	} else {
		a.applyNoRight(&reg, s, qlen)
	}
	finishRegion(&reg, s, c, aw0, aw1)
	return reg
}

// extendChain walks one chain's seeds best-first, skipping seeds contained
// in earlier regions (mem_chain2aln's online heuristic), extending the rest,
// and appending the resulting regions.
func (a *Aligner) extendChain(q []byte, c *chain.Chain, regs []Region, ws *Workspace) []Region {
	if len(c.Seeds) == 0 {
		return regs
	}
	rmax0, rseq := a.chainWindow(ws.rwin, len(q), c)
	ws.rwin = rseq
	srt := seedOrder(c)
	for k := len(srt) - 1; k >= 0; k-- {
		s := &c.Seeds[uint32(srt[k])]
		if a.seedContainedIn(regs, s, len(q)) >= 0 {
			if !hasOverlappingSeed(c, srt, k, s) {
				srt[k] = 0 // skip: contained with no conflicting overlap
				continue
			}
		}
		regs = append(regs, a.buildRegion(q, s, c, rmax0, rseq, ws))
	}
	return regs
}

// dedupRegions removes redundant overlapping regions and exact duplicates
// (mem_sort_dedup_patch). The region-merging "patch" step (mem_patch_reg),
// which joins two colinear regions of one read, is omitted because it lies
// outside the kernels the paper accelerates, so such a read keeps both
// regions. The result is sorted by decreasing score.
func (a *Aligner) dedupRegions(regs []Region) []Region {
	if len(regs) > 1 {
		// Sort by reference end (deterministic tie-breaks added).
		slices.SortFunc(regs, func(rx, ry Region) int {
			if rx.RE != ry.RE {
				return cmp.Compare(rx.RE, ry.RE)
			}
			if rx.RB != ry.RB {
				return cmp.Compare(rx.RB, ry.RB)
			}
			return cmp.Compare(rx.QB, ry.QB)
		})
		for i := 1; i < len(regs); i++ {
			p := &regs[i]
			if p.Rid != regs[i-1].Rid || p.RB >= regs[i-1].RE+a.Opts.MaxChainGap {
				continue
			}
			for j := i - 1; j >= 0 && p.Rid == regs[j].Rid && p.RB < regs[j].RE+a.Opts.MaxChainGap; j-- {
				q := &regs[j]
				if q.QE == q.QB {
					continue // already excluded
				}
				or := q.RE - p.RB
				var oq int
				if q.QB < p.QB {
					oq = q.QE - p.QB
				} else {
					oq = p.QE - q.QB
				}
				mr := min(q.RE-q.RB, p.RE-p.RB)
				mq := min(q.QE-q.QB, p.QE-p.QB)
				if float64(or) > a.Opts.MaskLevelRedun*float64(mr) &&
					float64(oq) > a.Opts.MaskLevelRedun*float64(mq) {
					if p.Score < q.Score {
						p.QE = p.QB // exclude p
						break
					}
					q.QE = q.QB // exclude q
				}
			}
		}
	}
	out := regs[:0]
	for _, r := range regs {
		if r.QE > r.QB {
			out = append(out, r)
		}
	}
	regs = out
	// Sort by score and drop identical hits.
	slices.SortFunc(regs, func(rx, ry Region) int {
		if rx.Score != ry.Score {
			return cmp.Compare(ry.Score, rx.Score)
		}
		if rx.RB != ry.RB {
			return cmp.Compare(rx.RB, ry.RB)
		}
		return cmp.Compare(rx.QB, ry.QB)
	})
	for i := 1; i < len(regs); i++ {
		if regs[i].Score == regs[i-1].Score && regs[i].RB == regs[i-1].RB && regs[i].QB == regs[i-1].QB {
			regs[i].QE = regs[i].QB
		}
	}
	out = regs[:0]
	for _, r := range regs {
		if r.QE > r.QB {
			out = append(out, r)
		}
	}
	return out
}

// markPrimary assigns secondary status and sub-scores (mem_mark_primary_se).
// regs must be sorted by decreasing score (dedupRegions' order).
func (a *Aligner) markPrimary(regs []Region) {
	if len(regs) == 0 {
		return
	}
	for i := range regs {
		regs[i].Sub, regs[i].SubN, regs[i].Secondary = 0, 0, -1
	}
	tmp := a.Opts.MatchScore + a.Opts.MismatchPen
	if v := a.Opts.MatchScore + a.Opts.EDel; v > tmp {
		tmp = v
	}
	if v := a.Opts.MatchScore + a.Opts.EIns; v > tmp {
		tmp = v
	}
	z := []int{0}
	for i := 1; i < len(regs); i++ {
		k := 0
		for ; k < len(z); k++ {
			j := z[k]
			bMax := max(regs[j].QB, regs[i].QB)
			eMin := min(regs[j].QE, regs[i].QE)
			if eMin > bMax { // query overlap
				minL := min(regs[i].QE-regs[i].QB, regs[j].QE-regs[j].QB)
				if float64(eMin-bMax) >= float64(minL)*a.Opts.MaskLevel {
					// Significant overlap: i describes the same placement
					// question as j and becomes secondary to it. Record j's
					// best sub-score, and count near-equal hits (within one
					// substitution/gap-extension of the primary) toward the
					// mapq ambiguity penalty.
					if regs[j].Sub == 0 {
						regs[j].Sub = regs[i].Score
					}
					if regs[j].Score-regs[i].Score <= tmp {
						regs[j].SubN++
					}
					break
				}
			}
		}
		if k == len(z) {
			z = append(z, i)
		} else {
			regs[i].Secondary = z[k]
		}
	}
}

// mapQ approximates the mapping quality of a primary region
// (mem_approx_mapq_se).
func (a *Aligner) mapQ(r *Region) int {
	sub := r.Sub
	if sub == 0 {
		sub = a.Opts.Seed.MinSeedLen * a.Opts.MatchScore
	}
	if sub >= r.Score {
		return 0
	}
	l := max(r.QE-r.QB, r.RE-r.RB)
	identity := 1 - float64(l*a.Opts.MatchScore-r.Score)/
		float64(a.Opts.MatchScore+a.Opts.MismatchPen)/float64(l)
	var mapq int
	switch {
	case r.Score == 0:
		mapq = 0
	case a.Opts.MapQCoefLen > 0:
		tmp := 1.0
		if l >= a.Opts.MapQCoefLen {
			tmp = a.Opts.MapQCoefFac / math.Log(float64(l))
		}
		tmp *= identity * identity
		mapq = int(6.02*float64(r.Score-sub)/float64(a.Opts.MatchScore)*tmp*tmp + .499)
	default:
		mapq = int(30.0*(1-float64(sub)/float64(r.Score))*math.Log(float64(r.SeedCov)) + .499)
	}
	if r.SubN > 0 {
		mapq -= int(4.343*math.Log(float64(r.SubN+1)) + .499)
	}
	if mapq > 60 {
		mapq = 60
	}
	if mapq < 0 {
		mapq = 0
	}
	return int(float64(mapq)*(1-r.FracRep) + .499)
}
