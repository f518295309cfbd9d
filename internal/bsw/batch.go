package bsw

import "time"

// laneInt is the storage type of one SIMD lane: int8 lanes give the paper's
// width-64 AVX512 kernel, int16 lanes the width-32 kernel (§5.4.1).
type laneInt interface {
	~int8 | ~int16
}

// BatchStats accounts for the batched engines' work. Lane-cells distinguish
// useful computation from the wasteful lane slots the paper analyses in
// §5.3/Table 8 ("useful cells are roughly half of the total cells computed").
type BatchStats struct {
	Batches     int64
	Rows        int64 // row steps summed over batches
	VectorSteps int64 // (row, column) steps; one modeled vector instruction each
	TotalCells  int64 // VectorSteps x lane width
	UsefulCells int64 // lane slots that were inside their lane's live band

	// Stage timers (Table 8): AoS-to-SoA conversion and state setup; band
	// clamping at the top of each row; the cell loop; and post-row band
	// shrinking plus score bookkeeping.
	PreprocessNS time.Duration
	BandAdjINS   time.Duration
	CellsNS      time.Duration
	BandAdjIINS  time.Duration
	SortNS       time.Duration
}

// BatchConfig configures RunBatch.
type BatchConfig struct {
	Width8  int  // lanes per 8-bit batch (paper: 64); 0 = default
	Width16 int  // lanes per 16-bit batch (paper: 32); 0 = default
	Sort    bool // radix-sort jobs by sequence length before batching (§5.3.1)
	// ForcePrecision routes every job to one engine: 8 or 16; 0 selects
	// per job (8-bit when the score range provably fits, else 16-bit, else
	// scalar fallback).
	ForcePrecision int
	Stats          *BatchStats
}

// DefaultBatchConfig mirrors the paper's AVX512 widths with sorting on.
func DefaultBatchConfig() BatchConfig {
	return BatchConfig{Width8: 64, Width16: 32, Sort: true}
}

// RunBatch executes all jobs through the batched engines and returns results
// in job order. Jobs whose score range exceeds the forced precision fall
// back to the scalar engine (matching BWA-MEM, which keeps a scalar path for
// outliers). It is the subject of Tables 6-8 and the width/sort ablations
// (internal/experiments), not an engine of the aligner: without SIMD the
// lanes run serially and lose to ExtendScalar.
func RunBatch(p *Params, jobs []Job, cfg BatchConfig) []ExtResult {
	if cfg.Width8 <= 0 {
		cfg.Width8 = 64
	}
	if cfg.Width16 <= 0 {
		cfg.Width16 = 32
	}
	results := make([]ExtResult, len(jobs))

	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	if cfg.Sort {
		start := time.Now()
		order = sortJobsByLength(jobs, order)
		if cfg.Stats != nil {
			cfg.Stats.SortNS += time.Since(start)
		}
	}

	idx8 := make([]int, 0, len(jobs))
	idx16 := make([]int, 0, len(jobs))
	idxScalar := make([]int, 0, len(jobs))
	//bwalint:hot per-read precision classification runs once per batch job
	for _, id := range order {
		j := &jobs[id]
		switch {
		case cfg.ForcePrecision == 8:
			if p.Fits8(j) {
				idx8 = append(idx8, id)
			} else {
				idxScalar = append(idxScalar, id)
			}
		case cfg.ForcePrecision == 16:
			if p.Fits16(j) {
				idx16 = append(idx16, id)
			} else {
				idxScalar = append(idxScalar, id)
			}
		default:
			if p.Fits8(j) {
				idx8 = append(idx8, id)
			} else if p.Fits16(j) {
				idx16 = append(idx16, id)
			} else {
				idxScalar = append(idxScalar, id)
			}
		}
	}

	for off := 0; off < len(idx8); off += cfg.Width8 {
		endOff := off + cfg.Width8
		if endOff > len(idx8) {
			endOff = len(idx8)
		}
		runLaneGroup[int8](p, jobs, idx8[off:endOff], cfg.Width8, results, cfg.Stats)
	}
	for off := 0; off < len(idx16); off += cfg.Width16 {
		endOff := off + cfg.Width16
		if endOff > len(idx16) {
			endOff = len(idx16)
		}
		runLaneGroup[int16](p, jobs, idx16[off:endOff], cfg.Width16, results, cfg.Stats)
	}
	var buf ScalarBuf
	for _, id := range idxScalar {
		j := &jobs[id]
		results[id] = ExtendScalar(p, j.Query, j.Target, j.W, j.H0, &buf, nil)
	}
	return results
}

// runLaneGroup advances up to width jobs in lock-step through the banded DP.
// Every lane executes exactly the scalar recurrence, gated by a per-lane
// mask; lane slots computed outside a lane's live band are the wasteful
// cells of §5.3.
func runLaneGroup[T laneInt](p *Params, jobs []Job, ids []int, width int, results []ExtResult, st *BatchStats) {
	tPre := time.Now()
	lanes := len(ids)
	maxQ, maxT := 0, 0
	for _, id := range ids {
		if len(jobs[id].Query) > maxQ {
			maxQ = len(jobs[id].Query)
		}
		if len(jobs[id].Target) > maxT {
			maxT = len(jobs[id].Target)
		}
	}

	// AoS -> SoA conversion of the sequences (§5.3.3): base j of lane l sits
	// at qSoA[j*width+l], so a fixed-j probe across lanes is one contiguous
	// (vector-loadable) run.
	qSoA := make([]byte, maxQ*width)
	tSoA := make([]byte, maxT*width)
	for i := range qSoA {
		qSoA[i] = 4
	}
	for i := range tSoA {
		tSoA[i] = 4
	}
	for l, id := range ids {
		for j, c := range jobs[id].Query {
			qSoA[j*width+l] = c
		}
		for i, c := range jobs[id].Target {
			tSoA[i*width+l] = c
		}
	}

	// Lane-strided H and E rows.
	H := make([]T, (maxQ+1)*width)
	E := make([]T, (maxQ+1)*width)

	oeDel := int32(p.ODel + p.EDel)
	oeIns := int32(p.OIns + p.EIns)
	eDel := int32(p.EDel)
	eIns := int32(p.EIns)
	maxSc := p.MaxMatch()

	// Per-lane registers.
	type laneState struct {
		qlen, tlen      int
		w, h0           int
		beg, end        int
		max, maxI, maxJ int
		maxIE, gscore   int
		maxOff          int
		f, h1, m        int32
		mj              int
		rowLive         bool // participating in the current row
		done            bool // finished or aborted
	}
	ls := make([]laneState, lanes)
	for l, id := range ids {
		j := &jobs[id]
		s := &ls[l]
		s.qlen, s.tlen = len(j.Query), len(j.Target)
		s.h0 = j.H0
		s.w = j.W
		// Band clamp, as in the scalar engine.
		maxIns := int(float64(s.qlen*maxSc+p.EndBonus-p.OIns)/float64(p.EIns) + 1)
		if maxIns < 1 {
			maxIns = 1
		}
		if s.w > maxIns {
			s.w = maxIns
		}
		maxDel := int(float64(s.qlen*maxSc+p.EndBonus-p.ODel)/float64(p.EDel) + 1)
		if maxDel < 1 {
			maxDel = 1
		}
		if s.w > maxDel {
			s.w = maxDel
		}
		s.beg, s.end = 0, s.qlen
		s.max, s.maxI, s.maxJ = j.H0, -1, -1
		s.maxIE, s.gscore = -1, -1
		// First DP row.
		H[0*width+l] = T(j.H0)
		if s.qlen > 0 {
			if v := int32(j.H0) - oeIns; v > 0 {
				H[1*width+l] = T(v)
			}
			for q := 2; q <= s.qlen && int32(H[(q-1)*width+l]) > eIns; q++ {
				H[q*width+l] = T(int32(H[(q-1)*width+l]) - eIns)
			}
		}
	}
	if st != nil {
		st.Batches++
		st.PreprocessNS += time.Since(tPre)
	}

	mat := &p.Mat
	for i := 0; i < maxT; i++ {
		// Band adjustment I: clamp each live lane's band to the diagonal
		// stripe for this row and set up the first column (§5.4(c) applies
		// the band; timed separately per Table 8).
		tBand := time.Now()
		anyLive := false
		jmin, jmax := maxQ, 0
		for l := range ls {
			s := &ls[l]
			s.rowLive = false
			if s.done || i >= s.tlen {
				continue
			}
			if s.beg < i-s.w {
				s.beg = i - s.w
			}
			if s.end > i+s.w+1 {
				s.end = i + s.w + 1
			}
			if s.end > s.qlen {
				s.end = s.qlen
			}
			s.h1 = 0
			if s.beg == 0 {
				if v := int32(s.h0) - int32(p.ODel+p.EDel*(i+1)); v > 0 {
					s.h1 = v
				}
			}
			s.f, s.m, s.mj = 0, 0, -1
			s.rowLive = true
			anyLive = true
			if s.beg < jmin {
				jmin = s.beg
			}
			if s.end > jmax {
				jmax = s.end
			}
		}
		if st != nil {
			st.BandAdjINS += time.Since(tBand)
		}
		if !anyLive {
			break
		}

		// Cell computations over the union column range: every lane slot in
		// [jmin, jmax) is computed (the vector model); only slots inside the
		// lane's own band commit state.
		tCells := time.Now()
		useful := int64(0)
		for j := jmin; j < jmax; j++ {
			rowOff := j * width
			for l := range ls {
				s := &ls[l]
				if !s.rowLive || j < s.beg || j >= s.end {
					continue // wasteful lane slot
				}
				useful++
				M := int32(H[rowOff+l])
				e := int32(E[rowOff+l])
				H[rowOff+l] = T(s.h1)
				if M != 0 {
					M += int32(mat[int(tSoA[i*width+l])*5+int(qSoA[rowOff+l])])
				}
				h := M
				if h < e {
					h = e
				}
				if h < s.f {
					h = s.f
				}
				s.h1 = h
				if s.m <= h {
					s.m, s.mj = h, j
				}
				t := M - oeDel
				if t < 0 {
					t = 0
				}
				e -= eDel
				if e < t {
					e = t
				}
				E[rowOff+l] = T(e)
				t = M - oeIns
				if t < 0 {
					t = 0
				}
				s.f -= eIns
				if s.f < t {
					s.f = t
				}
			}
		}
		if st != nil {
			st.CellsNS += time.Since(tCells)
			st.Rows++
			st.VectorSteps += int64(jmax - jmin)
			st.TotalCells += int64(jmax-jmin) * int64(width)
			st.UsefulCells += useful
		}

		// Band adjustment II and score bookkeeping (§5.4(b)-(d)).
		tBand2 := time.Now()
		for l := range ls {
			s := &ls[l]
			if !s.rowLive {
				continue
			}
			H[s.end*width+l] = T(s.h1)
			E[s.end*width+l] = 0
			if s.end == s.qlen {
				if s.gscore <= int(s.h1) {
					s.maxIE, s.gscore = i, int(s.h1)
				}
			}
			if s.m == 0 {
				s.done = true
				continue
			}
			if int(s.m) > s.max {
				s.max, s.maxI, s.maxJ = int(s.m), i, s.mj
				off := s.mj - i
				if off < 0 {
					off = -off
				}
				if off > s.maxOff {
					s.maxOff = off
				}
			} else if p.Zdrop > 0 {
				di, dj := i-s.maxI, s.mj-s.maxJ
				if di > dj {
					if s.max-int(s.m)-(di-dj)*p.EDel > p.Zdrop {
						s.done = true
						continue
					}
				} else {
					if s.max-int(s.m)-(dj-di)*p.EIns > p.Zdrop {
						s.done = true
						continue
					}
				}
			}
			j := s.beg
			for ; j < s.end && H[j*width+l] == 0 && E[j*width+l] == 0; j++ {
			}
			s.beg = j
			for j = s.end; j >= s.beg && H[j*width+l] == 0 && E[j*width+l] == 0; j-- {
			}
			if j+2 < s.qlen {
				s.end = j + 2
			} else {
				s.end = s.qlen
			}
		}
		if st != nil {
			st.BandAdjIINS += time.Since(tBand2)
		}
	}

	for l, id := range ids {
		s := &ls[l]
		results[id] = ExtResult{
			Score: s.max, QLE: s.maxJ + 1, TLE: s.maxI + 1,
			GTLE: s.maxIE + 1, GScore: s.gscore, MaxOff: s.maxOff,
		}
	}
}
