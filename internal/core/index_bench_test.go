package core

import (
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkIndexLoad measures the path from an on-disk .bwago to a ready
// aligner — the cost every bwaserve restart pays — for the two load
// strategies. The file is written (and read once) up front, so both
// sub-benchmarks run against a warm page cache: the v2-mmap number is the
// "warm start" the format was designed for, where open cost is header
// parsing instead of copying and rebuilding tables.
func BenchmarkIndexLoad(b *testing.B) {
	ref := testRef(b, 400000, 71)
	pi, err := BuildPrebuilt(ref)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	v2Path := filepath.Join(dir, "ref.bwago")
	f, err := os.Create(v2Path)
	if err != nil {
		b.Fatal(err)
	}
	if err := pi.WriteIndexV2(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	if _, err := os.ReadFile(v2Path); err != nil { // prime the page cache
		b.Fatal(err)
	}

	b.Run("v2-heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := os.Open(v2Path)
			if err != nil {
				b.Fatal(err)
			}
			loaded, err := ReadIndex(f)
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := NewAlignerFrom(loaded, ModeOptimized, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("v2-mmap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := OpenIndexMmap(v2Path)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := NewAlignerFrom(&m.Prebuilt, ModeOptimized, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
			if err := m.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
