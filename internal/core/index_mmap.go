//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"sync/atomic"
	"syscall"
)

// MappedIndex is prebuilt index data whose large sections — packed
// reference, BWT column, suffix array, bit-plane occurrence table — alias a
// read-only memory mapping of a .bwago file instead of living on the Go
// heap. Opening one costs header parsing and metadata validation regardless
// of index size; the kernel pages data in on first touch, and every process
// that maps the same file shares one page-cached copy.
//
// Lifetime contract: everything derived from the embedded Prebuilt —
// aligners from NewAlignerFrom, servers over those aligners, in-flight
// batches — borrows the mapping. Close unmaps it, so call Close only after
// all such users are done (for a server: after Shutdown has drained the
// scheduler and worker pool). Touching a borrowed slice after Close faults
// the process. Close is idempotent and safe for concurrent use.
type MappedIndex struct {
	Prebuilt
	mapping []byte
	size    int64
	path    string
	closed  atomic.Bool
}

// OpenIndexMmap maps an index file read-only and assembles a Prebuilt
// whose big arrays alias the mapping — zero copy.
//
// Verification at open: header checksum, full section-table geometry, the
// meta (contig) section checksum, and the consistency pass shared with the
// heap readers. The big sections' checksums are NOT verified here — that
// would page in the whole file and defeat the near-instant start; they are
// verified at write time and by every heap load of the same file.
func OpenIndexMmap(path string) (*MappedIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	probe := make([]byte, len(indexMagic)+4)
	if size < int64(len(probe)) {
		return nil, corruptf("%s is %d bytes, smaller than any index", path, size)
	}
	if _, err := f.ReadAt(probe, 0); err != nil {
		return nil, err
	}
	if string(probe[:len(indexMagic)]) != indexMagic {
		return nil, fmt.Errorf("core: %s is not a bwamem-go index (magic %q)", path, probe[:len(indexMagic)])
	}
	if ver := binary.LittleEndian.Uint32(probe[len(indexMagic):]); ver != indexVersion {
		return nil, fmt.Errorf("%w (%s)", errUnsupportedVersion(ver), path)
	}
	if size < v2HeaderBytes {
		return nil, corruptf("%s is %d bytes, smaller than a v2 header", path, size)
	}
	if uint64(size) > uint64(math.MaxInt) {
		return nil, fmt.Errorf("core: %s is %d bytes, too large to map on this platform", path, size)
	}
	m, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("core: mmap %s: %w", path, err)
	}
	pi, err := buildFromMapping(m, size)
	if err != nil {
		syscall.Munmap(m)
		return nil, fmt.Errorf("%w (mapping %s)", err, path)
	}
	return &MappedIndex{Prebuilt: *pi, mapping: m, size: size, path: path}, nil
}

// buildFromMapping parses the header out of the mapping and aliases the
// sections in place. The meta section is small and heap-decoded anyway, so
// its checksum is verified here; the big sections are aliased unverified
// (see OpenIndexMmap).
func buildFromMapping(m []byte, size int64) (*Prebuilt, error) {
	h, err := parseV2Header(m, size)
	if err != nil {
		return nil, err
	}
	var sec [v2NumSections][]byte
	for i, s := range h.sections {
		sec[i] = m[s.off : s.off+s.length : s.off+s.length]
	}
	if crc64.Checksum(sec[secMeta], crcTable) != h.sections[secMeta].crc {
		return nil, corruptf("meta section checksum mismatch")
	}
	return buildFromV2(h, sec, true)
}

// Close unmaps the file. See the lifetime contract on MappedIndex.
func (m *MappedIndex) Close() error {
	if !m.closed.CompareAndSwap(false, true) {
		return nil
	}
	mm := m.mapping
	m.mapping = nil
	if mm == nil {
		return nil
	}
	return syscall.Munmap(mm)
}

// MappedBytes returns the size of the mapping (the file size). This is
// shared, file-backed address space, not private heap: N processes mapping
// the same index keep one resident copy between them.
func (m *MappedIndex) MappedBytes() int64 { return m.size }

// Path returns the mapped file's path.
func (m *MappedIndex) Path() string { return m.path }

// IsMapped reports whether the index aliases a shared read-only file
// mapping — always true on this platform.
func (m *MappedIndex) IsMapped() bool { return true }
