//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package core

import "os"

// MappedIndex on platforms without wired-up mmap support: OpenIndexMmap
// falls back to a heap load of the same file so callers keep working, Close
// is a no-op, and MappedBytes reports the heap footprint instead of a
// shared mapping. The zero-copy guarantees documented on the unix build do
// not apply here.
type MappedIndex struct {
	Prebuilt
	size int64
	path string
}

// OpenIndexMmap heap-loads the index (mmap fallback for this platform);
// ReadIndex rejects what the mmap-capable platforms reject.
func OpenIndexMmap(path string) (*MappedIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pi, err := ReadIndex(f)
	if err != nil {
		return nil, err
	}
	return &MappedIndex{Prebuilt: *pi, size: pi.MemFootprint(), path: path}, nil
}

// Close is a no-op on the heap fallback.
func (m *MappedIndex) Close() error { return nil }

// MappedBytes returns the heap footprint of the loaded index.
func (m *MappedIndex) MappedBytes() int64 { return m.size }

// IsMapped reports whether the index aliases a shared read-only file
// mapping — always false on this platform's heap fallback.
func (m *MappedIndex) IsMapped() bool { return false }

// Path returns the loaded file's path.
func (m *MappedIndex) Path() string { return m.path }
