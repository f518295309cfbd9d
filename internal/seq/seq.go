// Package seq provides DNA sequence primitives shared by every stage of the
// aligner: the 2-bit nucleotide alphabet, encoding and decoding between ASCII
// and numeric codes, complementation, and the packed reference representation
// (forward strand concatenated with its reverse complement) over which the
// FM-index is built, exactly as in BWA-MEM. It also holds the streaming
// input decoders (FastqScanner, DecodeJSONReads) the server uses to
// validate request bodies as they arrive.
//
// # Concurrency contract
//
// The encoding/complement functions are pure and safe from any goroutine.
// A Reference is immutable once built and may be shared by every worker in
// the process — the alignment server relies on this to keep one resident
// reference under a whole pool. The stateful decoders (FastqScanner,
// ReadFasta, DecodeJSONReads) are single-goroutine: one decoder per
// input stream, never shared.
package seq

import (
	"fmt"
	"slices"
)

// Nucleotide codes. The FM-index and all kernels work on these numeric codes,
// not on ASCII bases. CodeN marks any ambiguous IUPAC base.
const (
	CodeA byte = 0
	CodeC byte = 1
	CodeG byte = 2
	CodeT byte = 3
	CodeN byte = 4 // ambiguous
)

// AlphabetSize is the number of unambiguous nucleotide codes.
const AlphabetSize = 4

// codeTable maps ASCII to nucleotide codes (the nst_nt4 table of BWA).
var codeTable = func() [256]byte {
	var t [256]byte
	for i := range t {
		t[i] = CodeN
	}
	t['A'], t['a'] = CodeA, CodeA
	t['C'], t['c'] = CodeC, CodeC
	t['G'], t['g'] = CodeG, CodeG
	t['T'], t['t'] = CodeT, CodeT
	return t
}()

// baseTable maps codes back to upper-case ASCII bases.
var baseTable = [5]byte{'A', 'C', 'G', 'T', 'N'}

// Code converts an ASCII base to its numeric code; any non-ACGT byte maps to
// CodeN.
func Code(b byte) byte { return codeTable[b] }

// Base converts a numeric code back to an upper-case ASCII base.
func Base(c byte) byte {
	if c > CodeN {
		return 'N'
	}
	return baseTable[c]
}

// Comp returns the complement of a nucleotide code. CodeN complements to
// itself.
func Comp(c byte) byte {
	if c >= CodeN {
		return CodeN
	}
	return 3 - c
}

// Encode converts an ASCII sequence to numeric codes, allocating a new slice.
func Encode(s []byte) []byte {
	out := make([]byte, len(s))
	for i, b := range s {
		out[i] = codeTable[b]
	}
	return out
}

// EncodeInto converts ASCII to codes into dst, which must be at least
// len(s) long, and returns dst[:len(s)].
func EncodeInto(dst, s []byte) []byte {
	dst = dst[:len(s)]
	for i, b := range s {
		dst[i] = codeTable[b]
	}
	return dst
}

// Decode converts numeric codes back to an ASCII sequence.
func Decode(codes []byte) []byte {
	out := make([]byte, len(codes))
	for i, c := range codes {
		out[i] = Base(c)
	}
	return out
}

// RevComp returns the reverse complement of a code sequence in a new slice.
func RevComp(codes []byte) []byte {
	out := make([]byte, len(codes))
	for i, c := range codes {
		out[len(codes)-1-i] = Comp(c)
	}
	return out
}

// RevCompInPlace reverse-complements a code sequence in place.
func RevCompInPlace(codes []byte) {
	i, j := 0, len(codes)-1
	for i < j {
		codes[i], codes[j] = Comp(codes[j]), Comp(codes[i])
		i, j = i+1, j-1
	}
	if i == j {
		codes[i] = Comp(codes[i])
	}
}

// Contig is one named sequence of a reference (a chromosome or scaffold).
type Contig struct {
	Name   string
	Offset int // start position within the packed forward strand
	Len    int
}

// Reference is the packed reference: all contigs concatenated on the forward
// strand, followed logically by the reverse complement of the whole thing.
// Coordinates in [0, Lpac) address the forward strand; coordinates in
// [Lpac, 2*Lpac) address the reverse strand, mirrored so that position
// 2*Lpac-1-i is the complement of forward position i. This is exactly BWA's
// pac layout and is what allows one FM-index to serve both strands.
//
// Ambiguous (non-ACGT) reference bases are substituted with a deterministic
// pseudo-random base at construction, as BWA does when packing a FASTA, so
// Pac contains only codes 0–3. NumAmb records how many were substituted.
type Reference struct {
	Contigs []Contig
	Pac     []byte // forward strand, numeric codes 0..3 only
	NumAmb  int    // number of ambiguous bases substituted
}

// Lpac returns the forward-strand length.
func (r *Reference) Lpac() int { return len(r.Pac) }

// ambBase deterministically picks the substitute base for an ambiguous
// reference base at absolute position pos (an LCG step on the position, so
// rebuilding the same reference always yields the same packed sequence).
func ambBase(pos int) byte {
	x := uint64(pos)*6364136223846793005 + 1442695040888963407
	return byte((x >> 33) & 3)
}

// NewReference builds a Reference from named ASCII sequences.
func NewReference(names []string, seqs [][]byte) (*Reference, error) {
	if len(names) != len(seqs) {
		return nil, fmt.Errorf("seq: %d names but %d sequences", len(names), len(seqs))
	}
	r := &Reference{}
	for i, s := range seqs {
		if len(s) == 0 {
			return nil, fmt.Errorf("seq: contig %q is empty", names[i])
		}
		r.Contigs = append(r.Contigs, Contig{Name: names[i], Offset: len(r.Pac), Len: len(s)})
		for _, b := range s {
			c := Code(b)
			if c >= CodeN {
				c = ambBase(len(r.Pac))
				r.NumAmb++
			}
			r.Pac = append(r.Pac, c)
		}
	}
	return r, nil
}

// Get returns the code at absolute position pos on the doubled (forward +
// reverse complement) sequence of length 2*Lpac.
func (r *Reference) Get(pos int) byte {
	l := len(r.Pac)
	if pos < l {
		return r.Pac[pos]
	}
	return Comp(r.Pac[2*l-1-pos])
}

// AppendFetch appends the code subsequence [beg, end) of the doubled
// sequence to dst and returns the extended slice; beg and end are clamped to
// [0, 2*Lpac]. The forward-strand part is one copy, the reverse-strand part
// one complementing loop down the forward strand.
func (r *Reference) AppendFetch(dst []byte, beg, end int) []byte {
	l := len(r.Pac)
	beg, end = max(beg, 0), min(end, 2*l)
	if beg >= end {
		return dst
	}
	dst = slices.Grow(dst, end-beg)
	if beg < l {
		dst = append(dst, r.Pac[beg:min(end, l)]...)
		beg = l
	}
	// Doubled position i >= l is the complement of forward base 2l-1-i.
	for i := 2*l - 1 - beg; i >= 2*l-end; i-- {
		dst = append(dst, Comp(r.Pac[i]))
	}
	return dst
}

// DoubledLen returns 2*Lpac, the length of the sequence the FM-index covers.
func (r *Reference) DoubledLen() int { return 2 * len(r.Pac) }

// Doubled materializes the full forward+reverse-complement code sequence.
// The FM-index is constructed from this.
func (r *Reference) Doubled() []byte {
	l := len(r.Pac)
	out := make([]byte, 2*l)
	copy(out, r.Pac)
	for i := 0; i < l; i++ {
		out[2*l-1-i] = Comp(r.Pac[i])
	}
	return out
}

// PosToContig resolves a forward-strand position to its contig index and the
// offset within that contig. It returns -1 if pos is out of range.
func (r *Reference) PosToContig(pos int) (idx, off int) {
	lo, hi := 0, len(r.Contigs)
	for lo < hi {
		mid := (lo + hi) / 2
		c := r.Contigs[mid]
		switch {
		case pos < c.Offset:
			hi = mid
		case pos >= c.Offset+c.Len:
			lo = mid + 1
		default:
			return mid, pos - c.Offset
		}
	}
	return -1, 0
}

// DepackPos maps a position on the doubled sequence to (forwardPos, isRev):
// the equivalent forward-strand coordinate of the leftmost base of a match of
// length matchLen starting at pos.
func (r *Reference) DepackPos(pos, matchLen int) (fwd int, isRev bool) {
	l := len(r.Pac)
	if pos < l {
		return pos, false
	}
	// On the reverse strand the match [pos, pos+matchLen) mirrors to the
	// forward interval ending at 2l-pos.
	return 2*l - (pos + matchLen), true
}
