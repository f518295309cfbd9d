// Raw (on-disk) form of the served occurrence table. A .bwago index
// persists the OccBP layout so loading an index skips the linear rebuild
// over the BWT column: the table is stored as its lines in memory order, 64
// bytes per line, every field little-endian. Occ128 is built from the BWT
// column by the baseline engine and has no raw form. On little-endian hosts
// the raw layout is exactly the in-memory one, so Raw is a zero-copy view
// and OccBPFromRaw aliases the section (straight out of an mmap'd file)
// instead of decoding it; big-endian hosts fall back to an explicit
// field-by-field codec.
package fmindex

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// Compile-time guarantees that the structs are exactly one 64-byte cache
// line with no padding — OccBP's raw codec and alias path rely on it, and so
// does the cache model's one-line-per-visit accounting (see Geometry).
var (
	_ = [1]struct{}{}[unsafe.Sizeof(occ128Block{})-occEntryBytes]
	_ = [1]struct{}{}[unsafe.Sizeof(occBPLine{})-occEntryBytes]
)

// HostLittleEndian reports whether the host stores integers little-endian,
// the byte order of the .bwago format: on such hosts the raw codecs
// alias memory instead of copying. internal/core shares this probe for its
// suffix-array section codec.
var HostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// OccBPLines returns how many 64-byte lines an OccBP over a text of length
// n has (NewOccBP's sizing rule).
func OccBPLines(n int) int {
	return max((n+127)/128, 1)
}

// aligned8 reports whether the slice's backing array starts on an 8-byte
// boundary, the alignment the struct alias paths require.
func aligned8(b []byte) bool {
	return len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%8 == 0
}

// Raw returns the table in the section byte layout. On little-endian hosts
// the returned slice aliases the table's memory — the caller must treat it
// as read-only.
func (o *OccBP) Raw() []byte {
	if HostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&o.lines[0])), len(o.lines)*occEntryBytes)
	}
	out := make([]byte, 0, len(o.lines)*occEntryBytes)
	for i := range o.lines {
		ln := &o.lines[i]
		for _, v := range ln.counts {
			out = binary.LittleEndian.AppendUint32(out, v)
		}
		for _, v := range ln.planes {
			out = binary.LittleEndian.AppendUint64(out, v)
		}
		for _, v := range ln.pad {
			out = binary.LittleEndian.AppendUint64(out, v)
		}
	}
	return out
}

// OccBPFromRaw wraps an occbp section as a table over a text of length n.
// On little-endian hosts with an 8-byte-aligned section the table aliases
// raw zero-copy — raw must then stay immutable (and, for an mmap'd section,
// mapped) for the table's lifetime; otherwise the section is decoded into
// fresh memory.
func OccBPFromRaw(raw []byte, n int) (*OccBP, error) {
	nl := OccBPLines(n)
	if len(raw) != nl*occEntryBytes {
		return nil, fmt.Errorf("fmindex: occbp section is %d bytes, want %d for text length %d", len(raw), nl*occEntryBytes, n)
	}
	o := &OccBP{n: n}
	if HostLittleEndian && aligned8(raw) {
		o.lines = unsafe.Slice((*occBPLine)(unsafe.Pointer(&raw[0])), nl)
		return o, nil
	}
	o.lines = make([]occBPLine, nl)
	for i := range o.lines {
		ln := &o.lines[i]
		p := raw[i*occEntryBytes:]
		for j := range ln.counts {
			ln.counts[j] = binary.LittleEndian.Uint32(p[j*4:])
		}
		for j := range ln.planes {
			ln.planes[j] = binary.LittleEndian.Uint64(p[16+j*8:])
		}
	}
	return o, nil
}
