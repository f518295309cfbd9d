// Package bsw implements the banded Smith-Waterman (BSW) kernel of BWA-MEM
// (paper §5): seed extension with a diagonal band, zero-row abort, z-drop
// abort, and per-row band adjustment. There is one extension engine,
// ExtendScalar, a faithful port of BWA's ksw_extend2 and the paper's
// baseline. A job runs on real vectors where it can: on amd64 with
// AVX-512BW, a job whose values fit int16 is one call of extendJob16
// (extend_amd64.s), which runs the whole row loop, band clamp, aborts and
// band shrink included, 32 cells per instruction within one row, F
// computed as a prefix-max scan and the scores shuffled from the matrix
// row by the query codes. Other jobs, other CPUs and the purego build tag
// run extendGo, the same loop in Go over int32 cells. Both give the same
// result and the same CellStats. The paper's inter-task kernels (many jobs
// in the lanes of one vector, §5.3) are not implemented.
//
// Global (a port of ksw_global2) is the banded global alignment with
// traceback that SAM-FORM runs to produce each CIGAR. When query and target
// have one length L, it first scores the ungapped alignment: any other path
// has an insertion and a deletion, so it scores at most
// (L-1)*a - (oIns+eIns) - (oDel+eDel), with a the largest matrix entry, and
// an ungapped score above that bound is the unique optimum, returned as
// one M without running the DP. Otherwise Global takes a score floor and
// computes only the cells that an alignment reaching the floor can pass
// through, with the same result as the full band. GlobalBuf carries its
// scratch from call to call, as ScalarBuf does for ExtendScalar.
package bsw

// Params holds the alignment scoring parameters (BWA-MEM defaults in
// DefaultParams).
type Params struct {
	Mat                    [25]int8 // 5x5 substitution matrix (A,C,G,T,N)
	ODel, EDel, OIns, EIns int      // gap open/extend penalties (positive)
	Zdrop                  int      // z-drop threshold; 0 disables
	EndBonus               int      // bonus for reaching the end of the query
}

// DefaultParams returns BWA-MEM's defaults: match 1, mismatch -4, gap open
// 6, gap extend 1, z-drop 100, end bonus 5.
func DefaultParams() Params {
	p := Params{ODel: 6, EDel: 1, OIns: 6, EIns: 1, Zdrop: 100, EndBonus: 5}
	p.Mat = FillScoreMatrix(1, 4)
	return p
}

// FillScoreMatrix builds BWA's 5x5 matrix (bwa_fill_scmat): +a on the
// diagonal, -b elsewhere, -1 against N.
func FillScoreMatrix(a, b int) [25]int8 {
	var m [25]int8
	k := 0
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				m[k] = int8(a)
			} else {
				m[k] = int8(-b)
			}
			k++
		}
		m[k] = -1 // ambiguous base
		k++
	}
	for j := 0; j < 5; j++ {
		m[k] = -1
		k++
	}
	return m
}

// MaxMatch returns the largest entry of the matrix (the match score).
func (p *Params) MaxMatch() int {
	max := 0
	for _, v := range p.Mat {
		if int(v) > max {
			max = int(v)
		}
	}
	return max
}

// ExtResult is the outcome of one seed extension (ksw_extend2's outputs).
type ExtResult struct {
	Score  int // best extension score (>= h0 means the seed extended)
	QLE    int // query length of the best local extension
	TLE    int // target length of the best local extension
	GTLE   int // target length of the best to-end-of-query extension
	GScore int // best to-end-of-query score; -1 if the end was never reached
	MaxOff int // max diagonal offset observed at score updates
}

// Job is one extension task: align query against target starting from a seed
// of initial score H0 with band width W.
type Job struct {
	Query  []byte
	Target []byte
	W      int
	H0     int
}

// Fits16 reports whether a job's scores fit int16 (see row16Fits).
func (p *Params) Fits16(j *Job) bool {
	return j.H0+len(j.Query)*p.MaxMatch() <= 32767
}
