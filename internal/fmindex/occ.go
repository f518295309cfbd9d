// Occurrence (rank) tables over the stored BWT column B0. Three layouts are
// implemented, each one 64-byte cache line per bucket:
//
//   - OccBP — the bit-plane layout, which ships behind the Optimized flavor
//     and is the one occurrence table the .bwago index persists. Bucket
//     size η = 128: four 4-byte counts, then two 64-base
//     words, each stored as a hi and a lo bit plane of the 2-bit codes.
//     All four in-bucket counts come from three popcounts per word
//     (hi&lo, hi&^lo, lo&^hi; the fourth by subtraction) with no per-base
//     matching: on a SIMD-less target bits.OnesCount64 is the wide
//     primitive, so this is the §4.4 redesign carried out for Go.
//
//   - Occ128 — the original BWA-MEM layout (§4.1), behind the Baseline
//     flavor (built from the BWT column, never persisted): bucket size
//     η = 128 with the BWT substring packed 2 bits per
//     base. A bucket is four 8-byte cumulative counts plus 32 bytes (four
//     words) of packed bases. Counting a base inside a bucket scans up to
//     four 32-base words with 2-bit SWAR matching — "a large number of
//     instructions" (§4.4).
//
//   - Occ32 — the paper's optimized layout (§4.4), the subject of Table 4
//     only (the experiments-only Eta32 flavor; never persisted or served):
//     bucket size η = 32 with one byte per base so the in-bucket count
//     vectorizes to a byte-compare mask plus popcount (AVX2 in the paper;
//     8-byte SWAR words here, which makes it the slower table in Go). A
//     bucket is four 4-byte counts (16 B), 32 base bytes, and 16 B of
//     padding for cache-line alignment.
//
// All tables answer rank queries over B0 (the sentinel-free stored BWT);
// the Index layer shifts full-column row numbers around the primary row.
package fmindex

import "math/bits"

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

// ---------------------------------------------------------------------------
// Occ32: the paper's optimized layout (Table 4's subject, experiments only).

type occ32Entry struct {
	counts [4]uint32 // occurrences of each base strictly before this bucket
	bases  [4]uint64 // 32 bases, one byte each, base i at byte i%8 of word i/8
	pad    [2]uint64 // padding to a full 64-byte cache line (§4.4)
}

// Occ32 is the paper's optimized occurrence table (η = 32, byte-per-base).
type Occ32 struct {
	entries []occ32Entry
	n       int
}

// NewOcc32 builds the optimized table over the stored BWT column. It errors
// via panic if the text exceeds the 4-byte count range (the same limit the
// paper's 16-byte count area implies).
func NewOcc32(b0 []byte) *Occ32 {
	n := len(b0)
	if uint64(n) > 1<<32-1 {
		panic("fmindex: text too long for 32-bit occurrence counts")
	}
	ne := (n + 31) / 32
	if ne == 0 {
		ne = 1
	}
	o := &Occ32{entries: make([]occ32Entry, ne), n: n}
	var run [4]uint32
	for i, c := range b0 {
		ent := i >> 5
		if i&31 == 0 {
			o.entries[ent].counts = run
		}
		w := (i & 31) >> 3
		sh := uint(i&7) << 3
		o.entries[ent].bases[w] |= uint64(c) << sh
		run[c]++
	}
	if n == 0 {
		o.entries[0].counts = run
	}
	// The pad field exists only to give each entry cache-line size; keep the
	// compiler from flagging it as dead.
	_ = o.entries[0].pad
	return o
}

const (
	ones  = 0x0101010101010101
	highs = 0x8080808080808080
	lows  = 0x7f7f7f7f7f7f7f7f
)

// countByteEq counts bytes equal to c among the first m bytes of w (bytes
// taken little-endian). The zero-byte detection is the carry-free SWAR form,
// exact per byte — this is the scalar stand-in for the paper's AVX2
// byte-compare + popcount.
func countByteEq(w uint64, c byte, m int) int {
	if m == 0 {
		return 0
	}
	x := w ^ (ones * uint64(c))
	t := (x & lows) + lows
	mask := ^(t | x | lows) // 0x80 exactly at zero bytes
	if m < 8 {
		mask &= (1 << (uint(m) * 8)) - 1
	}
	return bits.OnesCount64(mask)
}

// Count returns occurrences of c in B0[0..k]; k must be in [-1, n-1].
//
//bwalint:hot
func (o *Occ32) Count(c byte, k int) int {
	if k < 0 {
		return 0
	}
	ent := &o.entries[k>>5]
	cnt := int(ent.counts[c])
	m := k&31 + 1
	for w := 0; m > 0; w++ {
		step := m
		if step > 8 {
			step = 8
		}
		cnt += countByteEq(ent.bases[w], c, step)
		m -= step
	}
	return cnt
}

// Count4 returns occurrences of all four bases in B0[0..k].
//
//bwalint:hot
func (o *Occ32) Count4(k int) (cnt [4]int) {
	if k < 0 {
		return
	}
	ent := &o.entries[k>>5]
	for c := 0; c < 4; c++ {
		cnt[c] = int(ent.counts[c])
	}
	m := k&31 + 1
	for w := 0; m > 0; w++ {
		step := m
		if step > 8 {
			step = 8
		}
		d := ent.bases[w]
		for c := byte(0); c < 4; c++ {
			cnt[c] += countByteEq(d, c, step)
		}
		m -= step
	}
	return
}

// MemFootprint returns the table size in bytes.
func (o *Occ32) MemFootprint() int { return len(o.entries) * occEntryBytes }
