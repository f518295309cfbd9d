package sal

import (
	"math/rand"
	"testing"

	"repro/internal/fmindex"
	"repro/internal/seq"
)

func buildIndex(t testing.TB, n int, seed int64, flavor fmindex.Flavor) (*fmindex.Index, []int32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fwd := make([]byte, n)
	for i := range fwd {
		fwd[i] = "ACGT"[rng.Intn(4)]
	}
	ref, err := seq.NewReference([]string{"c"}, [][]byte{fwd})
	if err != nil {
		t.Fatal(err)
	}
	idx, full, err := fmindex.Build(ref.Doubled(), flavor)
	if err != nil {
		t.Fatal(err)
	}
	return idx, full
}

func TestFlatLookupAllRows(t *testing.T) {
	_, full := buildIndex(t, 300, 1, fmindex.Optimized)
	f, _ := New(full, 1, nil)
	for row := range full {
		if got := f.Lookup(row); got != int(full[row]) {
			t.Fatalf("Lookup(%d) = %d, want %d", row, got, full[row])
		}
	}
	if f.MemFootprint() != 4*len(full) {
		t.Errorf("footprint = %d", f.MemFootprint())
	}
}

func TestCompressedLookupAllRowsAllIntervals(t *testing.T) {
	for _, flavor := range []fmindex.Flavor{fmindex.Baseline, fmindex.Optimized} {
		idx, full := buildIndex(t, 257, 2, flavor)
		for _, intv := range []int{1, 2, 3, 8, 32, 128, 1024} {
			c, err := New(full, intv, idx)
			if err != nil {
				t.Fatal(err)
			}
			for row := range full {
				if got := c.Lookup(row); got != int(full[row]) {
					t.Fatalf("flavor %v intv %d: Lookup(%d) = %d, want %d",
						flavor, intv, row, got, full[row])
				}
			}
		}
	}
}

func TestCompressedRejectsBadInterval(t *testing.T) {
	idx, full := buildIndex(t, 64, 3, fmindex.Baseline)
	if _, err := New(full, 0, idx); err == nil {
		t.Fatal("interval 0 should error")
	}
	if _, err := New(full, -5, idx); err == nil {
		t.Fatal("negative interval should error")
	}
}

func TestCompressedFootprintShrinks(t *testing.T) {
	idx, full := buildIndex(t, 1024, 4, fmindex.Baseline)
	c32, _ := New(full, 32, idx)
	c128, _ := New(full, 128, idx)
	flat, _ := New(full, 1, nil)
	if !(c128.MemFootprint() < c32.MemFootprint() && c32.MemFootprint() < flat.MemFootprint()) {
		t.Fatalf("footprints: flat=%d c32=%d c128=%d",
			flat.MemFootprint(), c32.MemFootprint(), c128.MemFootprint())
	}
	if c128.Interval() != 128 {
		t.Fatal("interval accessor")
	}
}

func BenchmarkSALCompressed128(b *testing.B) {
	idx, full := buildIndex(b, 1<<16, 8, fmindex.Baseline)
	c, _ := New(full, 128, idx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(i % len(full))
	}
}

func BenchmarkSALFlat(b *testing.B) {
	_, full := buildIndex(b, 1<<16, 8, fmindex.Optimized)
	f, _ := New(full, 1, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Lookup(i % len(full))
	}
}
