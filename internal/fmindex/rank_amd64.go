//go:build !purego

package fmindex

import "repro/internal/cpufeat"

// haveRankKernel reports whether rankPair runs as the amd64 kernel
// (rank_amd64.s), which needs POPCNT and BMI2's BZHI.
var haveRankKernel = cpufeat.POPCNT && cpufeat.BMI2

// rankPair is lk.count4(k, ck) and ll.count4(l, cl) in one call: the
// counts of bases 0..k&127 of line lk and 0..l&127 of line ll.
//
//go:noescape
func rankPair(lk, ll *occBPLine, k, l int, ck, cl *[4]int)

// prefetch2 issues PREFETCHT0 for lines i and j of the table at lines.
//
//go:noescape
func prefetch2(lines *occBPLine, i, j int)
