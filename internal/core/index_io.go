// On-disk index I/O: the Prebuilt bundle, its consistency pass, and the
// stream reader's front door. The one format is the page-aligned layout
// (version 4) in index_v2.go (64-bit lengths, per-section offsets and CRCs,
// a persisted occurrence table, mmap-able via OpenIndexMmap in
// index_mmap.go). The reader runs Prebuilt.validate before returning and
// bounds every allocation by the claimed remaining input, so a truncated or
// adversarial file yields a "corrupt index" error rather than an OOM.
package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/bwt"
	"repro/internal/fmindex"
	"repro/internal/sal"
	"repro/internal/seq"
)

// Prebuilt bundles everything expensive about an index — the packed
// reference, the BWT, the full suffix array, and (when loaded from an index
// file) the prebuilt bit-plane occurrence table — so it can be written to
// disk once ("bwamem index") and reused by any aligner. Without a preloaded
// table, the occurrence table is rebuilt on load (a linear scan, negligible
// next to suffix-array construction but not next to an mmap open).
type Prebuilt struct {
	Ref    *seq.Reference
	BWT    *bwt.BWT
	FullSA []int32

	// OccBP, when non-nil, is the bit-plane occurrence table loaded from an
	// index file (possibly aliasing a memory-mapped file); NewAlignerFrom
	// uses it instead of rebuilding from the BWT column.
	OccBP *fmindex.OccBP
}

// BuildPrebuilt constructs the index data from a reference.
func BuildPrebuilt(ref *seq.Reference) (*Prebuilt, error) {
	b, full, err := bwt.FromText(ref.Doubled())
	if err != nil {
		return nil, err
	}
	return &Prebuilt{Ref: ref, BWT: b, FullSA: full}, nil
}

// NewAlignerFrom assembles an aligner from prebuilt index data.
// ModeOptimized, the shipped engine, uses the bit-plane table and a flat
// suffix array. ModeBaseline, which only the experiments and tests build,
// uses the η=128 occurrence table, built here from the BWT column, and a
// compressed suffix array (sal.DefaultCompression).
func NewAlignerFrom(pi *Prebuilt, mode Mode, opts Options) (*Aligner, error) {
	flavor := fmindex.Baseline
	intv := sal.DefaultCompression
	if mode == ModeOptimized {
		flavor, intv = fmindex.Optimized, 1
	}
	idx := fmindex.NewFromParts(pi.BWT, flavor, pi.OccBP)
	sa, err := sal.New(pi.FullSA, intv, idx)
	if err != nil {
		return nil, err
	}
	return &Aligner{
		Ref: pi.Ref, Idx: idx, SA: sa, Opts: opts,
		par5:   opts.bswParams(opts.PenClip5),
		par3:   opts.bswParams(opts.PenClip3),
		chOpts: opts.chainOpts(),
	}, nil
}

// MemFootprint returns the resident bytes of the loaded index data: packed
// reference, BWT column, suffix array, and any preloaded occurrence table.
func (pi *Prebuilt) MemFootprint() int64 {
	n := int64(len(pi.Ref.Pac)) + int64(len(pi.BWT.B0)) + 4*int64(len(pi.FullSA))
	if pi.OccBP != nil {
		n += int64(pi.OccBP.MemFootprint())
	}
	return n
}

const (
	indexMagic   = "BWAGOIDX"
	indexVersion = uint32(4)
)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("core: corrupt index: "+format, args...)
}

// validate is the consistency pass shared by the heap and mmap readers (and,
// defensively, the writer): every structural invariant checkable without
// scanning the large arrays. Violations that would otherwise surface as
// panics deep inside SAM rendering — contigs outside the packed reference,
// overlapping contigs, a primary row out of range — are reported here as
// corrupt-index errors instead.
func (pi *Prebuilt) validate() error {
	ref, b := pi.Ref, pi.BWT
	lpac := len(ref.Pac)
	if lpac == 0 {
		return corruptf("empty packed reference")
	}
	if b.N != 2*lpac {
		return corruptf("BWT covers %d symbols, want %d (doubled reference of %d bp)", b.N, 2*lpac, lpac)
	}
	if len(b.B0) != b.N {
		return corruptf("stored BWT column holds %d symbols, want %d", len(b.B0), b.N)
	}
	if b.N > math.MaxInt32-1 {
		return corruptf("text length %d exceeds the int32 suffix-array entry range", b.N)
	}
	if b.Primary < 1 || b.Primary > b.N {
		return corruptf("primary row %d outside [1, %d]", b.Primary, b.N)
	}
	sum := 0
	for _, v := range b.Counts {
		if v < 0 {
			return corruptf("negative base count %d", v)
		}
		sum += v
	}
	if sum != b.N {
		return corruptf("base counts sum to %d, text length is %d", sum, b.N)
	}
	if len(pi.FullSA) != b.N+1 {
		return corruptf("suffix array holds %d rows, want %d", len(pi.FullSA), b.N+1)
	}
	if ref.NumAmb < 0 || ref.NumAmb > lpac {
		return corruptf("ambiguous-base count %d outside [0, %d]", ref.NumAmb, lpac)
	}
	if len(ref.Contigs) == 0 {
		return corruptf("no contigs")
	}
	next := 0
	for i, c := range ref.Contigs {
		if c.Len <= 0 || c.Offset != next || c.Len > lpac-c.Offset {
			return corruptf("contig %d (%q) spans [%d, %d) which does not tile the %d bp packed reference",
				i, c.Name, c.Offset, c.Offset+c.Len, lpac)
		}
		next = c.Offset + c.Len
	}
	if next != lpac {
		return corruptf("contigs cover %d bp of a %d bp packed reference", next, lpac)
	}
	return nil
}

// validateSA scans the suffix array (heap-load paths only: over a mapping
// this would page in the whole section) checking every entry is a valid
// row-to-position value and the sentinel row is in place.
func (pi *Prebuilt) validateSA() error {
	n := int32(pi.BWT.N)
	if len(pi.FullSA) > 0 && pi.FullSA[0] != n {
		return corruptf("suffix array sentinel row holds %d, want %d", pi.FullSA[0], n)
	}
	for i, v := range pi.FullSA {
		if v < 0 || v > n {
			return corruptf("suffix array entry %d is %d, outside [0, %d]", i, v, n)
		}
	}
	return nil
}

// sizeHint reports how many bytes remain in r when r is seekable (the real
// callers hand in *os.File or bytes.Reader), or -1 when unknown. Readers
// use it to reject section lengths larger than the file before allocating.
func sizeHint(r io.Reader) int64 {
	s, ok := r.(io.Seeker)
	if !ok {
		return -1
	}
	cur, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return -1
	}
	end, err := s.Seek(0, io.SeekEnd)
	if err != nil {
		return -1
	}
	if _, err := s.Seek(cur, io.SeekStart); err != nil {
		return -1
	}
	return end - cur
}

// readFullAlloc reads exactly n bytes, allocating incrementally (at most
// allocChunk of headroom beyond what has actually arrived) so a corrupt or
// adversarial length field cannot force a huge up-front allocation: a
// truncated stream fails with a read error having allocated no more than
// one chunk past the received data. remaining, when >= 0, is the claimed
// number of input bytes left; lengths beyond it are rejected immediately.
func readFullAlloc(r io.Reader, n uint64, remaining int64) ([]byte, error) {
	const allocChunk = 8 << 20
	if n > uint64(math.MaxInt) || (remaining >= 0 && n > uint64(remaining)) {
		return nil, corruptf("section length %d exceeds the remaining input (%d bytes)", n, remaining)
	}
	var buf []byte
	for uint64(len(buf)) < n {
		step := n - uint64(len(buf))
		if step > allocChunk {
			step = allocChunk
		}
		off := len(buf)
		buf = slices.Grow(buf, int(step))[:off+int(step)]
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("core: corrupt index: truncated section (%d of %d bytes): %w", off, n, err)
		}
	}
	return buf, nil
}

// ReadIndex deserializes index data written by WriteIndexV2 onto the heap;
// use OpenIndexMmap to map the file zero-copy instead. Files of a retired
// version — 1 (the 32-bit stream format), 2 (which persisted the η=32 table
// in place of the bit-plane one) and 3 (which also persisted the η=128
// table) — are recognised and refused with a rebuild hint rather than
// reported as corrupt.
func ReadIndex(r io.Reader) (*Prebuilt, error) {
	remaining := sizeHint(r)
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(indexMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading index magic: %w", err)
	}
	if string(magic) != indexMagic {
		return nil, fmt.Errorf("core: not a bwamem-go index (magic %q)", magic)
	}
	var ver uint32
	if err := binary.Read(br, binary.LittleEndian, &ver); err != nil {
		return nil, fmt.Errorf("core: reading index version: %w", err)
	}
	if ver != indexVersion {
		return nil, errUnsupportedVersion(ver)
	}
	if remaining >= 0 {
		remaining -= int64(len(indexMagic)) + 4
	}
	return readIndexV2(br, remaining)
}

// errUnsupportedVersion is the answer to any index version but the current
// one, shared by the heap and mmap front doors.
func errUnsupportedVersion(ver uint32) error {
	return fmt.Errorf("core: unsupported index version %d, rebuild with `bwamem index`", ver)
}
