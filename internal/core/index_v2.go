// The .bwago index format (version 4; versions 1-3 are retired and refused
// with a rebuild hint): a page-aligned, little-endian layout — introduced by
// version 2, hence the v2 names below — designed so the file can be
// memory-mapped read-only and the big arrays used in place (OpenIndexMmap in
// index_mmap.go), while staying loadable from a plain stream (ReadIndex).
// Version 3 replaced the η=32 table (occ32, 2 B/base) with the bit-plane one
// (occbp, 0.5 B/base); version 4 dropped the η=128 table (occ128), which only
// the experiments' baseline engine reads and which it builds from the BWT
// column instead.
//
//	offset  size  field
//	0       8     magic "BWAGOIDX"
//	8       4     u32 version = 4
//	12      4     u32 page size = 4096 (section alignment)
//	16      8     u64 file size (end of the last section)
//	24      8     u64 BWT text length N (= 2 x packed reference length)
//	32      8     u64 BWT primary row
//	40      8     u64 ambiguous-base count
//	48      32    u64 x4 base counts of the text
//	80      4     u32 section count = 5
//	84      4     reserved (0)
//	88      120   section table: 5 x { u64 offset, u64 length, u64 crc64 }
//	208     8     u64 crc64 (ECMA) of header bytes [0, 208)
//	216     ...   zero padding to 4096
//
// Sections follow in table order, each starting on a 4096-byte boundary
// (zero padding in between), lengths exact:
//
//	meta    contig table: u64 count, then per contig u64 name length,
//	        name bytes, u64 offset, u64 length
//	pac     packed forward reference, one code byte per base
//	bwt     stored BWT column B0, one code byte per symbol
//	sa      full-matrix suffix array, little-endian int32 per row
//	occbp   bit-plane occurrence table, 64-byte lines (fmindex raw layout)
//
// Persisting the served occurrence table means loading skips the linear
// rebuild over the BWT column; page alignment means pac, bwt, sa and occbp
// can alias an mmap'd file directly on little-endian hosts. The per-section
// CRCs are verified by heap loads and at write time; the mmap path verifies
// the header and meta CRCs only (see OpenIndexMmap).
package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"unsafe"

	"repro/internal/bwt"
	"repro/internal/fmindex"
	"repro/internal/seq"
)

const (
	v2PageSize     = 4096
	v2HeaderBytes  = v2PageSize
	v2NumSections  = 5
	v2SectionTab   = 88
	v2HeaderCRCOff = v2SectionTab + 24*v2NumSections
)

// Section indices, in file order.
const (
	secMeta = iota
	secPac
	secBWT
	secSA
	secOccBP
)

var secNames = [v2NumSections]string{"meta", "pac", "bwt", "sa", "occbp"}

var crcTable = crc64.MakeTable(crc64.ECMA)

type v2Section struct{ off, length, crc uint64 }

type v2Header struct {
	fileSize   uint64
	bwtN       uint64
	bwtPrimary uint64
	numAmb     uint64
	counts     [4]uint64
	sections   [v2NumSections]v2Section
}

// int32sRaw views a suffix array as the on-disk little-endian byte layout —
// zero-copy (and read-only) on little-endian hosts
// (fmindex.HostLittleEndian, the shared byte-order probe).
func int32sRaw(a []int32) []byte {
	if len(a) == 0 {
		return nil
	}
	if fmindex.HostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), 4*len(a))
	}
	out := make([]byte, 0, 4*len(a))
	for _, v := range a {
		out = binary.LittleEndian.AppendUint32(out, uint32(v))
	}
	return out
}

// int32sFromRaw interprets an on-disk suffix-array section, aliasing raw
// zero-copy when the host is little-endian and the section is 4-byte
// aligned (always true for page-aligned mappings).
func int32sFromRaw(raw []byte) []int32 {
	n := len(raw) / 4
	if n == 0 {
		return nil
	}
	if fmindex.HostLittleEndian && uintptr(unsafe.Pointer(&raw[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&raw[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out
}

// WriteIndexV2 serializes the index in the current format (version 4; the
// name dates from the page-aligned layout's introduction). The bit-plane
// table is built if not already present, so any later load — heap or mmap —
// skips the linear rebuild over the BWT column.
func (pi *Prebuilt) WriteIndexV2(w io.Writer) error {
	if err := pi.validate(); err != nil {
		return fmt.Errorf("core: refusing to write inconsistent index: %w", err)
	}
	return writeIndexV2(w, pi)
}

// writeIndexV2 emits the v2 file without validation (split out so tests can
// craft deliberately inconsistent files for the reader).
func writeIndexV2(w io.Writer, pi *Prebuilt) error {
	obp := pi.OccBP
	if obp == nil {
		obp = fmindex.NewOccBP(pi.BWT.B0)
	}
	data := [v2NumSections][]byte{
		secMeta:  appendMetaV2(nil, pi.Ref.Contigs),
		secPac:   pi.Ref.Pac,
		secBWT:   pi.BWT.B0,
		secSA:    int32sRaw(pi.FullSA),
		secOccBP: obp.Raw(),
	}
	var h v2Header
	h.bwtN = uint64(pi.BWT.N)
	h.bwtPrimary = uint64(pi.BWT.Primary)
	h.numAmb = uint64(pi.Ref.NumAmb)
	for c, v := range pi.BWT.Counts {
		h.counts[c] = uint64(v)
	}
	off := uint64(v2HeaderBytes)
	for i, d := range data {
		h.sections[i] = v2Section{off: off, length: uint64(len(d)), crc: crc64.Checksum(d, crcTable)}
		off = (off + uint64(len(d)) + v2PageSize - 1) &^ uint64(v2PageSize-1)
	}
	last := h.sections[v2NumSections-1]
	h.fileSize = last.off + last.length

	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(h.encode()); err != nil {
		return err
	}
	var zeros [v2PageSize]byte
	pos := uint64(v2HeaderBytes)
	for i, d := range data {
		for pad := h.sections[i].off - pos; pad > 0; {
			step := pad
			if step > v2PageSize {
				step = v2PageSize
			}
			if _, err := bw.Write(zeros[:step]); err != nil {
				return err
			}
			pad -= step
		}
		if _, err := bw.Write(d); err != nil {
			return err
		}
		pos = h.sections[i].off + uint64(len(d))
	}
	return bw.Flush()
}

// encode renders the full 4096-byte header page, checksum included.
func (h *v2Header) encode() []byte {
	buf := make([]byte, v2HeaderBytes)
	le := binary.LittleEndian
	copy(buf, indexMagic)
	le.PutUint32(buf[8:], indexVersion)
	le.PutUint32(buf[12:], v2PageSize)
	le.PutUint64(buf[16:], h.fileSize)
	le.PutUint64(buf[24:], h.bwtN)
	le.PutUint64(buf[32:], h.bwtPrimary)
	le.PutUint64(buf[40:], h.numAmb)
	for c, v := range h.counts {
		le.PutUint64(buf[48+8*c:], v)
	}
	le.PutUint32(buf[80:], v2NumSections)
	for i, s := range h.sections {
		p := buf[v2SectionTab+24*i:]
		le.PutUint64(p, s.off)
		le.PutUint64(p[8:], s.length)
		le.PutUint64(p[16:], s.crc)
	}
	le.PutUint64(buf[v2HeaderCRCOff:], crc64.Checksum(buf[:v2HeaderCRCOff], crcTable))
	return buf
}

// parseV2Header parses and structurally validates a header page: checksum,
// section table geometry (page-aligned, monotone, non-overlapping, inside
// the declared file size), and the cross-section length invariants. Every
// later allocation and slice is bounded by what this function admits.
// actualSize, when >= 0, is the real input size to cross-check the header's
// claim against.
func parseV2Header(buf []byte, actualSize int64) (*v2Header, error) {
	if len(buf) < v2HeaderBytes {
		return nil, corruptf("v2 header truncated (%d bytes)", len(buf))
	}
	le := binary.LittleEndian
	if string(buf[:len(indexMagic)]) != indexMagic {
		return nil, fmt.Errorf("core: not a bwamem-go index (magic %q)", buf[:len(indexMagic)])
	}
	if ver := le.Uint32(buf[8:]); ver != indexVersion {
		return nil, fmt.Errorf("core: index version %d where v%d was expected", ver, indexVersion)
	}
	if got, want := le.Uint64(buf[v2HeaderCRCOff:]), crc64.Checksum(buf[:v2HeaderCRCOff], crcTable); got != want {
		return nil, corruptf("header checksum mismatch")
	}
	if ps := le.Uint32(buf[12:]); ps != v2PageSize {
		return nil, corruptf("unsupported page size %d", ps)
	}
	if sc := le.Uint32(buf[80:]); sc != v2NumSections {
		return nil, corruptf("section count %d, want %d", sc, v2NumSections)
	}
	h := &v2Header{
		fileSize:   le.Uint64(buf[16:]),
		bwtN:       le.Uint64(buf[24:]),
		bwtPrimary: le.Uint64(buf[32:]),
		numAmb:     le.Uint64(buf[40:]),
	}
	for c := range h.counts {
		h.counts[c] = le.Uint64(buf[48+8*c:])
	}
	if actualSize >= 0 && uint64(actualSize) != h.fileSize {
		return nil, corruptf("file is %d bytes, header claims %d", actualSize, h.fileSize)
	}
	pos := uint64(v2HeaderBytes)
	for i := range h.sections {
		p := buf[v2SectionTab+24*i:]
		s := v2Section{off: le.Uint64(p), length: le.Uint64(p[8:]), crc: le.Uint64(p[16:])}
		if s.off%v2PageSize != 0 || s.off < pos || s.length > h.fileSize || s.off > h.fileSize-s.length {
			return nil, corruptf("%s section [%d, +%d) outside the %d-byte file", secNames[i], s.off, s.length, h.fileSize)
		}
		h.sections[i] = s
		pos = s.off + s.length
	}
	if pos != h.fileSize {
		return nil, corruptf("declared file size %d does not end at the last section (%d)", h.fileSize, pos)
	}
	if h.bwtN > math.MaxInt32-1 {
		return nil, corruptf("text length %d exceeds the int32 suffix-array entry range", h.bwtN)
	}
	if h.bwtN != 2*h.sections[secPac].length {
		return nil, corruptf("BWT covers %d symbols, want %d (doubled reference of %d bp)",
			h.bwtN, 2*h.sections[secPac].length, h.sections[secPac].length)
	}
	if h.sections[secBWT].length != h.bwtN {
		return nil, corruptf("bwt section holds %d symbols, want %d", h.sections[secBWT].length, h.bwtN)
	}
	if h.sections[secSA].length != 4*(h.bwtN+1) {
		return nil, corruptf("sa section is %d bytes, want %d", h.sections[secSA].length, 4*(h.bwtN+1))
	}
	if h.bwtPrimary < 1 || h.bwtPrimary > h.bwtN {
		return nil, corruptf("primary row %d outside [1, %d]", h.bwtPrimary, h.bwtN)
	}
	for c, v := range h.counts {
		if v > h.bwtN {
			return nil, corruptf("base %d count %d exceeds text length %d", c, v, h.bwtN)
		}
	}
	return h, nil
}

// appendMetaV2 serializes the contig table.
func appendMetaV2(dst []byte, contigs []seq.Contig) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, uint64(len(contigs)))
	for _, c := range contigs {
		dst = le.AppendUint64(dst, uint64(len(c.Name)))
		dst = append(dst, c.Name...)
		dst = le.AppendUint64(dst, uint64(c.Offset))
		dst = le.AppendUint64(dst, uint64(c.Len))
	}
	return dst
}

// decodeMetaV2 parses the contig table with every field bounds-checked
// against the section itself; range checks against the packed reference
// happen in Prebuilt.validate.
func decodeMetaV2(raw []byte) ([]seq.Contig, error) {
	le := binary.LittleEndian
	u64 := func() (uint64, bool) {
		if len(raw) < 8 {
			return 0, false
		}
		v := le.Uint64(raw)
		raw = raw[8:]
		return v, true
	}
	nc, ok := u64()
	if !ok {
		return nil, corruptf("meta section truncated")
	}
	if nc == 0 || nc > uint64(len(raw))/24 {
		return nil, corruptf("contig count %d does not fit the %d-byte meta section", nc, len(raw)+8)
	}
	contigs := make([]seq.Contig, 0, nc)
	for i := uint64(0); i < nc; i++ {
		nl, ok := u64()
		if !ok || nl > uint64(len(raw)) {
			return nil, corruptf("meta section truncated in contig %d", i)
		}
		name := string(raw[:nl])
		raw = raw[nl:]
		off, ok1 := u64()
		ln, ok2 := u64()
		if !ok1 || !ok2 {
			return nil, corruptf("meta section truncated in contig %d", i)
		}
		if off > math.MaxInt32 || ln > math.MaxInt32 {
			return nil, corruptf("contig %d (%q) coordinates [%d, +%d] out of range", i, name, off, ln)
		}
		contigs = append(contigs, seq.Contig{Name: name, Offset: int(off), Len: int(ln)})
	}
	if len(raw) != 0 {
		return nil, corruptf("meta section has %d trailing bytes", len(raw))
	}
	return contigs, nil
}

// buildFromV2 assembles a Prebuilt from a parsed header and section bytes
// (heap buffers or sub-slices of a mapping). trustCounts selects the
// no-scan BWT constructor for the mmap path; heap loads scan the column,
// cross-check the header's counts, and range-check the suffix array.
func buildFromV2(h *v2Header, sec [v2NumSections][]byte, trustCounts bool) (*Prebuilt, error) {
	contigs, err := decodeMetaV2(sec[secMeta])
	if err != nil {
		return nil, err
	}
	ref := &seq.Reference{Contigs: contigs, Pac: sec[secPac], NumAmb: int(h.numAmb)}
	var counts [4]int
	for c, v := range h.counts {
		counts[c] = int(v)
	}
	var b *bwt.BWT
	if trustCounts {
		b, err = bwt.FromStoredCounts(sec[secBWT], int(h.bwtPrimary), counts)
	} else {
		b, err = bwt.FromStored(sec[secBWT], int(h.bwtPrimary))
		if err == nil && b.Counts != counts {
			err = fmt.Errorf("stored base counts disagree with the BWT column")
		}
	}
	if err != nil {
		return nil, corruptf("%v", err)
	}
	obp, err := fmindex.OccBPFromRaw(sec[secOccBP], b.N)
	if err != nil {
		return nil, corruptf("%v", err)
	}
	pi := &Prebuilt{Ref: ref, BWT: b, FullSA: int32sFromRaw(sec[secSA]), OccBP: obp}
	if err := pi.validate(); err != nil {
		return nil, err
	}
	if !trustCounts {
		if err := pi.validateSA(); err != nil {
			return nil, err
		}
	}
	return pi, nil
}

// readIndexV2 parses a v2 stream after ReadIndex consumed the magic and
// version: the rest of the header page is read, validated, and then each
// section is read in file order with bounded allocation and its checksum
// verified. This is the heap path — sections become ordinary Go memory;
// OpenIndexMmap maps them instead.
func readIndexV2(br *bufio.Reader, remaining int64) (*Prebuilt, error) {
	hb := make([]byte, v2HeaderBytes)
	copy(hb, indexMagic)
	binary.LittleEndian.PutUint32(hb[8:], indexVersion)
	if _, err := io.ReadFull(br, hb[12:]); err != nil {
		return nil, corruptf("truncated header: %v", err)
	}
	actual := int64(-1)
	if remaining >= 0 {
		actual = remaining + int64(len(indexMagic)) + 4
	}
	h, err := parseV2Header(hb, actual)
	if err != nil {
		return nil, err
	}
	var sec [v2NumSections][]byte
	pos := uint64(v2HeaderBytes)
	for i := range sec {
		s := h.sections[i]
		if _, err := io.CopyN(io.Discard, br, int64(s.off-pos)); err != nil {
			return nil, corruptf("truncated before the %s section: %v", secNames[i], err)
		}
		d, err := readFullAlloc(br, s.length, int64(h.fileSize-s.off))
		if err != nil {
			return nil, err
		}
		if crc64.Checksum(d, crcTable) != s.crc {
			return nil, corruptf("%s section checksum mismatch", secNames[i])
		}
		sec[i] = d
		pos = s.off + s.length
	}
	return buildFromV2(h, sec, false)
}
