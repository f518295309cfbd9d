// Package chain implements BWA-MEM's seed chaining stage (paper §2.3
// "CHAIN"): collinear seeds that are close on both the query and the
// reference are grouped into chains, chains are weighed by their seed
// coverage, and weak chains that are shadowed by stronger overlapping ones
// are dropped before the expensive extension stage.
//
// This is a faithful port of mem_chain / test_and_merge / mem_chain_flt from
// BWA 0.7.17, with the k-btree replaced by a sorted slice with binary search.
package chain

import (
	"cmp"
	"slices"
	"sort"
)

// Seed is one exact match placed on the doubled reference: query span
// [QBeg, QBeg+Len) matches reference span [RBeg, RBeg+Len).
type Seed struct {
	RBeg  int // position on the doubled (forward+reverse) reference
	QBeg  int
	Len   int
	Score int // initially Len
}

// Chain is a group of collinear seeds on one reference contig.
type Chain struct {
	Seeds   []Seed
	Rid     int // contig id
	Pos     int // anchor: RBeg of the first seed
	Weight  int
	Kept    int     // 0 dropped, 1 shadowed-kept, 2 partial-overlap, 3 primary
	First   int     // index of the first chain shadowed by this one, or -1
	FracRep float64 // fraction of the read covered by repetitive seeds
}

// QBeg returns the chain's query start (first seed's).
func (c *Chain) QBeg() int { return c.Seeds[0].QBeg }

// QEnd returns the chain's query end (last seed's).
func (c *Chain) QEnd() int {
	s := c.Seeds[len(c.Seeds)-1]
	return s.QBeg + s.Len
}

// Opts are the chaining parameters (BWA-MEM defaults via DefaultOpts).
type Opts struct {
	MaxChainGap    int     // max gap between chained seeds (10000)
	W              int     // band width used in the collinearity test (100)
	MaxOcc         int     // sample at most this many occurrences per seed interval (500)
	MaskLevel      float64 // chain overlap significance threshold (0.50)
	DropRatio      float64 // drop chains lighter than this fraction of the best overlap (0.50)
	MinChainWeight int     // minimum chain weight (0)
	MinSeedLen     int     // used by the drop rule (19)
}

// DefaultOpts returns BWA-MEM's defaults.
func DefaultOpts() Opts {
	return Opts{MaxChainGap: 10000, W: 100, MaxOcc: 500, MaskLevel: 0.50,
		DropRatio: 0.50, MinChainWeight: 0, MinSeedLen: 19}
}

// testAndMerge decides whether seed s extends chain c (BWA's
// test_and_merge). It returns true if the seed was merged or is contained;
// false requests a new chain.
func testAndMerge(opt *Opts, lPac int, c *Chain, s *Seed, seedRid int) bool {
	last := &c.Seeds[len(c.Seeds)-1]
	qend := last.QBeg + last.Len
	rend := last.RBeg + last.Len
	if seedRid != c.Rid {
		return false
	}
	if s.QBeg >= c.Seeds[0].QBeg && s.QBeg+s.Len <= qend &&
		s.RBeg >= c.Seeds[0].RBeg && s.RBeg+s.Len <= rend {
		return true // contained seed; do nothing
	}
	if (last.RBeg < lPac || c.Seeds[0].RBeg < lPac) && s.RBeg >= lPac {
		return false // different strands
	}
	x := s.QBeg - last.QBeg // non-negative: seeds arrive sorted by QBeg
	y := s.RBeg - last.RBeg
	if y >= 0 && x-y <= opt.W && y-x <= opt.W &&
		x-last.Len < opt.MaxChainGap && y-last.Len < opt.MaxChainGap {
		c.Seeds = append(c.Seeds, *s)
		return true
	}
	return false
}

// RidOf resolves which contig a reference span belongs to; it returns -1 if
// the span bridges contigs or the forward/reverse boundary. Implemented by
// the caller (core) against its Reference; injected to keep this package
// free of that dependency.
type RidOf func(rbeg, rend int) int

// Build groups placed seeds into chains. Seeds must arrive in the order
// produced by seeding (sorted by query start, then occurrence), exactly as
// BWA feeds its b-tree. lPac is the forward-strand length.
func Build(opt *Opts, lPac int, seeds []Seed, ridOf RidOf, fracRep float64) []*Chain {
	var chains []*Chain // kept sorted by Pos
	for i := range seeds {
		s := seeds[i]
		rid := ridOf(s.RBeg, s.RBeg+s.Len)
		if rid < 0 {
			continue // bridging contigs or the strand boundary
		}
		merged := false
		if len(chains) > 0 {
			// Find the closest chain at or before this seed's position.
			j := sort.Search(len(chains), func(k int) bool { return chains[k].Pos > s.RBeg })
			if j > 0 && testAndMerge(opt, lPac, chains[j-1], &s, rid) {
				merged = true
			}
		}
		if !merged {
			nc := &Chain{Seeds: []Seed{s}, Rid: rid, Pos: s.RBeg, First: -1, FracRep: fracRep}
			j := sort.Search(len(chains), func(k int) bool { return chains[k].Pos > nc.Pos })
			chains = append(chains, nil)
			copy(chains[j+1:], chains[j:])
			chains[j] = nc
		}
	}
	return chains
}

// weight computes a chain's weight: the smaller of its non-overlapping seed
// coverage on the query and on the reference (mem_chain_weight).
func (c *Chain) weight() int {
	cov := func(key func(*Seed) int) int {
		w, end := 0, 0
		for i := range c.Seeds {
			s := &c.Seeds[i]
			b := key(s)
			switch {
			case b >= end:
				w += s.Len
			case b+s.Len > end:
				w += b + s.Len - end
			}
			if b+s.Len > end {
				end = b + s.Len
			}
		}
		return w
	}
	qw := cov(func(s *Seed) int { return s.QBeg })
	rw := cov(func(s *Seed) int { return s.RBeg })
	if rw < qw {
		return rw
	}
	return qw
}

// Filter weighs chains and drops the ones shadowed by significantly
// overlapping heavier chains (mem_chain_flt). It returns the kept chains
// ordered by decreasing weight.
func Filter(opt *Opts, chains []*Chain) []*Chain {
	if len(chains) == 0 {
		return chains
	}
	kept := chains[:0]
	for _, c := range chains {
		c.First, c.Kept = -1, 0
		c.Weight = c.weight()
		if c.Weight >= opt.MinChainWeight {
			kept = append(kept, c)
		}
	}
	chains = kept
	if len(chains) == 0 {
		return chains
	}
	// Sort by decreasing weight (deterministic tie-break on position/query).
	slices.SortStableFunc(chains, func(ca, cb *Chain) int {
		if ca.Weight != cb.Weight {
			return cmp.Compare(cb.Weight, ca.Weight)
		}
		if ca.Pos != cb.Pos {
			return cmp.Compare(ca.Pos, cb.Pos)
		}
		return cmp.Compare(ca.QBeg(), cb.QBeg())
	})

	var keptIdx []int
	chains[0].Kept = 3
	keptIdx = append(keptIdx, 0)
	for i := 1; i < len(chains); i++ {
		largeOvlp := false
		k := 0
		for ; k < len(keptIdx); k++ {
			j := keptIdx[k]
			bMax := chains[j].QBeg()
			if chains[i].QBeg() > bMax {
				bMax = chains[i].QBeg()
			}
			eMin := chains[j].QEnd()
			if chains[i].QEnd() < eMin {
				eMin = chains[i].QEnd()
			}
			if eMin > bMax { // overlap on the query
				li := chains[i].QEnd() - chains[i].QBeg()
				lj := chains[j].QEnd() - chains[j].QBeg()
				minL := li
				if lj < minL {
					minL = lj
				}
				if float64(eMin-bMax) >= float64(minL)*opt.MaskLevel && minL < opt.MaxChainGap {
					largeOvlp = true
					if chains[j].First < 0 {
						chains[j].First = i
					}
					if float64(chains[i].Weight) < float64(chains[j].Weight)*opt.DropRatio &&
						chains[j].Weight-chains[i].Weight >= opt.MinSeedLen<<1 {
						break
					}
				}
			}
		}
		if k == len(keptIdx) {
			keptIdx = append(keptIdx, i)
			if largeOvlp {
				chains[i].Kept = 2
			} else {
				chains[i].Kept = 3
			}
		}
	}
	// Keep the first shadowed chain of each kept chain for mapq accuracy.
	for _, ki := range keptIdx {
		if f := chains[ki].First; f >= 0 {
			chains[f].Kept = 1
		}
	}
	out := chains[:0]
	for _, c := range chains {
		if c.Kept > 0 {
			out = append(out, c)
		}
	}
	return out
}
