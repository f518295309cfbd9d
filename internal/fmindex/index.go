// Package fmindex implements the FM-index over the doubled reference
// (forward strand + reverse complement) and the bidirectional backward/
// forward extension and SMEM search algorithms of BWA-MEM (paper §2.2-§2.3,
// §4, Algorithms 1-4).
//
// Two occurrence-table layouts (occ.go) sit behind one Index type, so
// every algorithm above this layer is shared and output is identical by
// construction: the Baseline flavor is original BWA-MEM's η=128 2-bit
// layout; the Optimized flavor — the one that ships, behind
// core.ModeOptimized — is the bit-plane layout built around a scalar
// popcount, ranked on amd64 by an assembly kernel (rank_amd64.s).
//
// Seeding (smem.go) is one resumable engine: CollectIntervalsBatch steps
// SeedLanes reads round-robin with a real software prefetch one step
// ahead (the paper's Algorithm 4), and CollectIntervals, SMEM1 and
// SeedStrategy1 run the same steps over one read. The Baseline flavor
// issues no prefetch.
//
// The paper's cost model (Table 4's bucket visits, words and prefetches)
// lives in internal/experiments. The kernels only report the stored-BWT
// positions they touch to an optional Probe, and Geometry gives the bucket
// layout of the index's own table.
package fmindex

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/bwt"
)

// Flavor selects the occurrence-table design.
type Flavor int

const (
	// Baseline is original BWA-MEM: η=128, 2-bit packed BWT, no software
	// prefetching.
	Baseline Flavor = iota
	// Optimized is the serving design: the η=128 bit-plane table (OccBP),
	// one cache line per bucket, with software prefetching.
	Optimized
)

func (f Flavor) String() string {
	if f == Optimized {
		return "optimized"
	}
	return "baseline"
}

// BiInterval is a bi-directional SA interval (k, l, s) as in §4.2: K is the
// first row of the match's interval, L the first row of the interval of the
// reverse complement of the match, and S the interval size. QBeg/QEnd give
// the query span of the match once known.
type BiInterval struct {
	K, L, S    int
	QBeg, QEnd int32
}

// Len returns the query-span length of the interval.
func (b BiInterval) Len() int { return int(b.QEnd - b.QBeg) }

func (b BiInterval) String() string {
	return fmt.Sprintf("[k=%d l=%d s=%d q=%d:%d]", b.K, b.L, b.S, b.QBeg, b.QEnd)
}

// Index is the FM-index: the BWT plus one occurrence table (exactly one of
// occBP, occ128 is set).
type Index struct {
	B      *bwt.BWT
	flavor Flavor
	occBP  *OccBP
	occ128 *Occ128
	rank   rankEngine
	probe  Probe
}

// rankEngine is how Extend computes its two rank bounds, chosen once per
// Index by NewFromParts.
type rankEngine uint8

const (
	rankOcc128 rankEngine = iota // Baseline: Occ128.Count4, twice
	rankPlanes                   // OccBP.countPair, the Go count4
	rankKernel                   // OccBP.countPairKernel, the amd64 kernel
)

// Probe observes the stored-BWT positions the kernels rank at, for a cost
// model outside the serving path. Every position is in [0, N) unless noted.
type Probe interface {
	// Extend reports the two rank bounds of one extension, k <= l; either
	// may be -1 (an empty prefix, answered without a table access).
	Extend(k, l int)
	// Occ reports one single-base rank, from LF.
	Occ(k int)
	// Prefetch reports one software-prefetch hint (paper Algorithm 4),
	// issued as PREFETCHT0 on amd64. The Baseline flavor, like original
	// BWA-MEM, issues none.
	Prefetch(k int)
}

// Build constructs the index of text (codes 0..3) in the given flavor. It
// also returns the full-matrix suffix array for suffix-array-lookup
// construction.
func Build(text []byte, flavor Flavor) (*Index, []int32, error) {
	b, full, err := bwt.FromText(text)
	if err != nil {
		return nil, nil, err
	}
	return New(b, flavor), full, nil
}

// New wraps an existing BWT in an index of the given flavor.
func New(b *bwt.BWT, flavor Flavor) *Index {
	return NewFromParts(b, flavor, nil)
}

// NewFromParts wraps an existing BWT and, when non-nil, a preloaded
// bit-plane table — e.g. one aliased out of a memory-mapped index, which
// skips the linear rebuild over B0. The table is adopted only by the
// Optimized flavor and only when it covers a text of length b.N; otherwise
// the flavor's table is built from B0 exactly as New does. Only the
// bit-plane table is persisted, so Baseline always builds its own.
func NewFromParts(b *bwt.BWT, flavor Flavor, obp *OccBP) *Index {
	x := &Index{B: b, flavor: flavor}
	switch {
	case flavor != Optimized:
		x.occ128 = NewOcc128(b.B0)
	case obp != nil && obp.n == b.N:
		x.occBP = obp
	default:
		x.occBP = NewOccBP(b.B0)
	}
	switch {
	case x.occBP == nil:
		x.rank = rankOcc128
	case haveRankKernel:
		x.rank = rankKernel
	default:
		x.rank = rankPlanes
	}
	return x
}

// Flavor reports which occurrence-table design the index uses.
func (x *Index) Flavor() Flavor { return x.flavor }

// SetProbe installs (or removes, with nil) a probe. The index must not be
// shared between goroutines while probed.
func (x *Index) SetProbe(p Probe) { x.probe = p }

// MemFootprint returns the occurrence-table size in bytes.
func (x *Index) MemFootprint() int {
	if x.occBP != nil {
		return x.occBP.MemFootprint()
	}
	return x.occ128.MemFootprint()
}

// Geometry returns the occurrence table's bucket size eta (stored position
// k lies in bucket k/eta) and the bases per in-bucket word (a rank at k
// scans (k mod eta)/basesPerWord + 1 words).
func (x *Index) Geometry() (eta, basesPerWord int) {
	if x.occBP != nil {
		return 128, 64
	}
	return 128, 32
}

// Occ returns occurrences of base c in B'[0..row]; row must be in [-1, N].
func (x *Index) Occ(c byte, row int) int {
	k := x.B.RankShift(row)
	if k < 0 {
		return 0
	}
	if x.probe != nil {
		x.probe.Occ(k)
	}
	if x.occBP != nil {
		return x.occBP.Count(c, k)
	}
	return x.occ128.Count(c, k)
}

// SetIntv returns the bi-interval of the single base c (BWA's bwt_set_intv).
func (x *Index) SetIntv(c byte) BiInterval {
	return BiInterval{K: x.B.C[c], L: x.B.C[3-c], S: x.B.Counts[c]}
}

// Extend computes the bi-intervals of ik extended by every base at once
// (BWA's bwt_extend, the paper's Algorithms 2-3) into ok. With isBack true
// the result for prepending base b is ok[b]; with isBack false the result
// for appending base b is ok[3-b] (the complement trick of Algorithm 3).
// It writes K, L and S of all four entries; QBeg and QEnd belong to the
// caller and keep whatever it last stored there. Writing into the caller's
// array saves the search loops copying a 128-byte result per extension.
//
//bwalint:hot
func (x *Index) Extend(ik BiInterval, isBack bool, ok *[4]BiInterval) {
	a, b := ik.K, ik.L
	if !isBack {
		a, b = b, a
	}
	k, l := x.B.RankShift(a-1), x.B.RankShift(a+ik.S-1)
	if x.probe != nil {
		x.probe.Extend(k, l)
	}
	var tk, tl [4]int
	switch {
	case x.rank == rankKernel && k >= 0:
		x.occBP.countPairKernel(k, l, &tk, &tl)
	case x.rank != rankOcc128:
		x.occBP.countPair(k, l, &tk, &tl)
	default:
		tk, tl = x.occ128.Count4(k), x.occ128.Count4(l)
	}
	// Rows whose suffix is exactly the current match followed by the
	// sentinel partition ahead of all base extensions; there is at most one
	// (the primary row).
	cum := b
	if a <= x.B.Primary && x.B.Primary <= a+ik.S-1 {
		cum++
	}
	if isBack {
		for c := 3; c >= 0; c-- {
			s := tl[c] - tk[c]
			ok[c].K, ok[c].L, ok[c].S = x.B.C[c]+tk[c], cum, s
			cum += s
		}
		return
	}
	for c := 3; c >= 0; c-- {
		s := tl[c] - tk[c]
		ok[c].K, ok[c].L, ok[c].S = cum, x.B.C[c]+tk[c], s
		cum += s
	}
}

// prefetchOcc is Algorithm 4's software prefetch (lines 11-12 and 26-27):
// r1 and r2 are the full-column rows the next extension of an interval
// will rank at, and it issues PREFETCHT0 for their bit-plane lines (a
// no-op under purego) and reports both to the probe. The Baseline flavor,
// like original BWA-MEM, issues none.
func (x *Index) prefetchOcc(r1, r2 int) {
	if x.flavor == Baseline {
		return
	}
	if x.probe != nil {
		x.probePrefetch(r1)
		x.probePrefetch(r2)
	}
	x.occBP.prefetch(x.B.RankShift(r1), x.B.RankShift(r2))
}

func (x *Index) probePrefetch(row int) {
	if k := x.B.RankShift(row); k >= 0 && k < x.B.N {
		x.probe.Prefetch(k)
	}
}

// LF maps a full-matrix row to the row whose suffix starts one text position
// earlier (the LF mapping / inverse Psi). LF of the primary row wraps to the
// sentinel row 0.
func (x *Index) LF(k int) int {
	if k == x.B.Primary {
		return 0
	}
	c := x.B.Char(k)
	return x.B.C[c] + x.Occ(c, k) - 1
}

// sortIntervals orders seeds by (QBeg, QEnd), BWA's mem_intv order,
// without allocating. The sort is unstable, which cannot change the output:
// tied intervals cover the same query span, hence the same substring, hence
// carry the same BiInterval.
func sortIntervals(a []BiInterval) {
	slices.SortFunc(a, func(x, y BiInterval) int {
		if c := cmp.Compare(x.QBeg, y.QBeg); c != 0 {
			return c
		}
		return cmp.Compare(x.QEnd, y.QEnd)
	})
}
