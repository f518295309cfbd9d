// Occurrence (rank) tables over the stored BWT column B0. Two layouts are
// implemented, each one 64-byte cache line per bucket:
//
//   - OccBP — the bit-plane layout, which ships behind the Optimized flavor
//     and is the one occurrence table the .bwago index persists. Bucket
//     size η = 128: four 4-byte counts, then two 64-base
//     words, each stored as a hi and a lo bit plane of the 2-bit codes.
//     All four in-bucket counts come from three popcounts per word
//     (hi&lo, hi&^lo, lo&^hi; the fourth by subtraction) with no per-base
//     matching: the §4.4 redesign built around a scalar popcount rather
//     than a vector compare. Extend reads both of its bounds in one call,
//     on amd64 the rankPair kernel (rank_amd64.s: BZHI masks, POPCNT
//     counts), elsewhere and under purego the Go count4.
//
//   - Occ128 — the original BWA-MEM layout (§4.1), behind the Baseline
//     flavor (built from the BWT column, never persisted): bucket size
//     η = 128 with the BWT substring packed 2 bits per
//     base. A bucket is four 8-byte cumulative counts plus 32 bytes (four
//     words) of packed bases. Counting a base inside a bucket scans up to
//     four 32-base words with 2-bit SWAR matching — "a large number of
//     instructions" (§4.4).
//
// The paper's own §4.4 table (η = 32, one byte per base, counted with AVX2)
// is not built: Table 4 costs it from its bucket geometry alone
// (internal/experiments).
//
// All tables answer rank queries over B0 (the sentinel-free stored BWT);
// the Index layer shifts full-column row numbers around the primary row.
package fmindex

import (
	"math/bits"
	"unsafe"
)

// occEntryBytes is the size of one bucket of any layout: one cache line.
const occEntryBytes = 64

// ---------------------------------------------------------------------------
// OccBP: bit-plane layout (the serving table).

type occBPLine struct {
	counts [4]uint32 // occurrences of each base strictly before this line
	planes [4]uint64 // hi0, lo0, hi1, lo1: bit i of word w's hi (lo) plane is the high (low) code bit of base 64w+i
	pad    [2]uint64 // padding to a full 64-byte cache line
}

// OccBP is the bit-plane occurrence table (η = 128, 0.5 B per base).
type OccBP struct {
	lines []occBPLine
	n     int
}

// NewOccBP builds the bit-plane table over the stored BWT column, one
// 64-base word at a time. It panics if the text exceeds the 4-byte count
// range.
func NewOccBP(b0 []byte) *OccBP {
	n := len(b0)
	if uint64(n) > 1<<32-1 {
		panic("fmindex: text too long for 32-bit occurrence counts")
	}
	o := &OccBP{lines: make([]occBPLine, OccBPLines(n)), n: n}
	var run [4]uint32
	for w, start := 0, 0; start < n; w, start = w+1, start+64 {
		ln := &o.lines[w>>1]
		if w&1 == 0 {
			ln.counts = run
		}
		word := b0[start:min(start+64, n)]
		var hi, lo uint64
		for i, c := range word {
			hi |= uint64(c>>1) << uint(i)
			lo |= uint64(c&1) << uint(i)
		}
		ln.planes[2*(w&1)], ln.planes[2*(w&1)+1] = hi, lo
		c3 := uint32(bits.OnesCount64(hi & lo))
		c2 := uint32(bits.OnesCount64(hi &^ lo))
		c1 := uint32(bits.OnesCount64(lo &^ hi))
		run[0] += uint32(len(word)) - c1 - c2 - c3
		run[1] += c1
		run[2] += c2
		run[3] += c3
	}
	return o
}

// count4 writes occurrences of all four bases in B0[0..k] into cnt: the
// line's counts plus those in B0[line start..k]. Both words are masked
// without a branch: r0 = min(r, 64) and r1 = r - r0 turn into all-ones /
// zero masks because a uint64 shift by 64 is 0 in Go.
func (ln *occBPLine) count4(k int, cnt *[4]int) {
	r := k&127 + 1
	r0 := min(r, 64)
	m0 := uint64(1)<<uint(r0) - 1
	m1 := uint64(1)<<uint(r-r0) - 1
	h0, l0 := ln.planes[0]&m0, ln.planes[1]&m0
	h1, l1 := ln.planes[2]&m1, ln.planes[3]&m1
	c3 := bits.OnesCount64(h0&l0) + bits.OnesCount64(h1&l1)
	c2 := bits.OnesCount64(h0&^l0) + bits.OnesCount64(h1&^l1)
	c1 := bits.OnesCount64(l0&^h0) + bits.OnesCount64(l1&^h1)
	cnt[0] = int(ln.counts[0]) + r - c1 - c2 - c3
	cnt[1] = int(ln.counts[1]) + c1
	cnt[2] = int(ln.counts[2]) + c2
	cnt[3] = int(ln.counts[3]) + c3
}

// Count returns occurrences of c in B0[0..k]; k must be in [-1, n-1]. Only
// LF (compressed-SA lookups) asks for one base, and ModeOptimized pairs
// this table with the flat SA, so it reuses Count4.
func (o *OccBP) Count(c byte, k int) int { return o.Count4(k)[c] }

// Count4 returns occurrences of all four bases in B0[0..k].
//
//bwalint:hot
func (o *OccBP) Count4(k int) (cnt [4]int) {
	if k >= 0 {
		o.lines[k>>7].count4(k, &cnt)
	}
	return
}

// countPair writes Count4(k) into ck and Count4(l) into cl, for k <= l in
// [-1, n-1] — the two rank bounds of one Index.Extend, its only caller.
// When both bounds share a line (the common case once intervals shrink,
// §4.2) the second read of the line hits L1.
//
//bwalint:hot
func (o *OccBP) countPair(k, l int, ck, cl *[4]int) {
	if k >= 0 {
		o.lines[k>>7].count4(k, ck)
	} else {
		*ck = [4]int{}
	}
	if l >= 0 {
		o.lines[l>>7].count4(l, cl)
	} else {
		*cl = [4]int{}
	}
}

// countPairKernel is countPair for 0 <= k <= l, with both in-line counts
// from rankPair: the amd64 kernel where the CPU has it. Extend sends k = -1
// to countPair.
func (o *OccBP) countPairKernel(k, l int, ck, cl *[4]int) {
	rankPair(&o.lines[k>>7], &o.lines[l>>7], k, l, ck, cl)
}

// prefetch issues a cache-line prefetch for the lines holding stored
// positions k and l, each in [-1, n]. There is no bounds check: a prefetch
// of the line before or after the table never faults.
func (o *OccBP) prefetch(k, l int) {
	prefetch2(unsafe.SliceData(o.lines), k>>7, l>>7)
}

// MemFootprint returns the table size in bytes.
func (o *OccBP) MemFootprint() int { return len(o.lines) * occEntryBytes }

// ---------------------------------------------------------------------------
// Occ128: baseline layout.

type occ128Block struct {
	counts [4]uint64 // occurrences of each base strictly before this bucket
	data   [4]uint64 // 128 bases, 2 bits each, base i at bits (2i%64) of word i/32
}

// Occ128 is the original BWA-MEM occurrence table (η = 128, 2-bit packed).
type Occ128 struct {
	blocks []occ128Block
	n      int
}

// NewOcc128 builds the baseline table over the stored BWT column.
func NewOcc128(b0 []byte) *Occ128 {
	n := len(b0)
	nb := (n + 127) / 128
	if nb == 0 {
		nb = 1
	}
	o := &Occ128{blocks: make([]occ128Block, nb), n: n}
	var run [4]uint64
	for i, c := range b0 {
		blk := i >> 7
		if i&127 == 0 {
			o.blocks[blk].counts = run
		}
		w := (i & 127) >> 5
		sh := uint(i&31) << 1
		o.blocks[blk].data[w] |= uint64(c) << sh
		run[c]++
	}
	if n == 0 {
		o.blocks[0].counts = run
	}
	return o
}

// count2bit counts occurrences of base c among the first m 2-bit slots of w.
func count2bit(w uint64, c byte, m int) int {
	if m == 0 {
		return 0
	}
	x := w ^ (0x5555555555555555 * uint64(c))
	mask := ^(x | x>>1) & 0x5555555555555555
	if m < 32 {
		mask &= (1 << (uint(m) * 2)) - 1
	}
	return bits.OnesCount64(mask)
}

// Count returns occurrences of c in B0[0..k]; k must be in [-1, n-1].
//
//bwalint:hot
func (o *Occ128) Count(c byte, k int) int {
	if k < 0 {
		return 0
	}
	blk := &o.blocks[k>>7]
	cnt := int(blk.counts[c])
	m := k&127 + 1
	for w := 0; m > 0; w++ {
		step := m
		if step > 32 {
			step = 32
		}
		cnt += count2bit(blk.data[w], c, step)
		m -= step
	}
	return cnt
}

// Count4 returns occurrences of all four bases in B0[0..k].
//
//bwalint:hot
func (o *Occ128) Count4(k int) (cnt [4]int) {
	if k < 0 {
		return
	}
	blk := &o.blocks[k>>7]
	for c := 0; c < 4; c++ {
		cnt[c] = int(blk.counts[c])
	}
	m := k&127 + 1
	for w := 0; m > 0; w++ {
		step := m
		if step > 32 {
			step = 32
		}
		d := blk.data[w]
		for c := byte(0); c < 4; c++ {
			cnt[c] += count2bit(d, c, step)
		}
		m -= step
	}
	return
}

// MemFootprint returns the table size in bytes.
func (o *Occ128) MemFootprint() int { return len(o.blocks) * occEntryBytes }
