package fmindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func randB0(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(4))
	}
	return b
}

// occLayouts names every occurrence-table layout with its constructor.
var occLayouts = []struct {
	name  string
	build func([]byte) occSource
}{
	{"Occ128", func(b0 []byte) occSource { return NewOcc128(b0) }},
	{"OccBP", func(b0 []byte) occSource { return NewOccBP(b0) }},
}

// checkMatchesNaive compares Count and Count4 of every layout built over b0
// with a naive running tally, at every k in [-1, n-1], and the bit-plane
// table's rank-pair engines with it too (checkPairs).
func checkMatchesNaive(t *testing.T, layout string, b0 []byte) {
	t.Helper()
	naive := make([][4]int, len(b0)+1) // naive[k+1]: the counts over B0[0..k]
	for k, c := range b0 {
		naive[k+1] = naive[k]
		naive[k+1][c]++
	}
	for _, l := range occLayouts {
		if layout != "" && l.name != layout {
			continue
		}
		o := l.build(b0)
		if bp, ok := o.(*OccBP); ok {
			checkPairs(t, bp, naive)
		}
		for k := -1; k < len(b0); k++ {
			want := naive[k+1]
			if got := o.Count4(k); got != want {
				t.Fatalf("n=%d %s.Count4(%d) = %v, want %v", len(b0), l.name, k, got, want)
			}
			for c := byte(0); c < 4; c++ {
				if got := o.Count(c, k); got != want[c] {
					t.Fatalf("n=%d %s.Count(%d,%d) = %d, want %d", len(b0), l.name, c, k, got, want[c])
				}
			}
		}
	}
}

// checkPairs compares both rank-pair engines of o — countPair over the Go
// count4, and countPairKernel, the amd64 kernel where the CPU has it, whose
// contract starts at k = 0 — with the naive counts. Every k in [-1, n-1]
// is paired with l = k, k+1,
// the last position of k's word and of k's line, the first position of
// the next line, a position in the next line's second word and one two
// lines on; and every pair of -1 and the word and line boundaries 63, 64,
// 127 and 128.
func checkPairs(t *testing.T, o *OccBP, naive [][4]int) {
	t.Helper()
	n := len(naive) - 1
	engines := []struct {
		name string
		f    func(k, l int, ck, cl *[4]int)
	}{
		{"countPair", o.countPair},
		{fmt.Sprintf("countPairKernel(amd64 kernel %v)", haveRankKernel), o.countPairKernel},
	}
	check := func(k, l int) {
		if l < k || l >= n {
			return
		}
		for i, e := range engines {
			if i == 1 && k < 0 {
				continue // the kernel's contract starts at k = 0
			}
			ck, cl := [4]int{-1, -1, -1, -1}, [4]int{-1, -1, -1, -1}
			e.f(k, l, &ck, &cl)
			if ck != naive[k+1] || cl != naive[l+1] {
				t.Fatalf("n=%d %s(%d, %d) = %v, %v; want %v, %v", n, e.name, k, l, ck, cl, naive[k+1], naive[l+1])
			}
		}
	}
	for k := -1; k < n; k++ {
		for _, l := range []int{k, k + 1, k | 63, k | 127, k | 127 + 1, k | 127 + 70, k + 256} {
			check(k, l)
		}
	}
	edges := []int{-1, 63, 64, 127, 128}
	for _, k := range edges {
		for _, l := range edges {
			check(k, l)
		}
	}
}

// testMatchesNaive runs one layout ("" = all) over random columns whose
// lengths straddle every bucket and word boundary of the layouts (32/128
// bases for Occ128, 64/128 for OccBP).
func testMatchesNaive(t *testing.T, layout string, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, n := range []int{0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 4097} {
		checkMatchesNaive(t, layout, randB0(rng, n))
	}
}

func TestOcc128MatchesNaive(t *testing.T) { testMatchesNaive(t, "Occ128", 11) }
func TestOccBPMatchesNaive(t *testing.T)  { testMatchesNaive(t, "OccBP", 13) }

// TestOccMatchesNaiveSkewed repeats the differential check on columns of a
// single base and of two alternating bases, where one miscounted plane
// shows up as a whole word of error.
func TestOccMatchesNaiveSkewed(t *testing.T) {
	for _, n := range []int{64, 129, 300} {
		for _, pattern := range [][]byte{{0}, {1}, {2}, {3}, {1, 2}, {0, 3}} {
			b0 := make([]byte, n)
			for i := range b0 {
				b0[i] = pattern[i%len(pattern)]
			}
			checkMatchesNaive(t, "", b0)
		}
	}
}

// FuzzOccCount4 checks every layout against the naive count at every
// position of a fuzzed column.
func FuzzOccCount4(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add(make([]byte, 200))
	f.Add(bytes.Repeat([]byte{3, 2, 1}, 70))
	f.Fuzz(func(t *testing.T, raw []byte) {
		b0 := make([]byte, len(raw))
		for i, b := range raw {
			b0[i] = b & 3
		}
		checkMatchesNaive(t, "", b0)
	})
}

func TestOccLayoutGeometry(t *testing.T) {
	b0 := randB0(rand.New(rand.NewSource(1)), 1000)
	o128, obp := NewOcc128(b0), NewOccBP(b0)
	x128, xbp := &Index{occ128: o128}, &Index{occBP: obp}
	eta128, bpw128 := x128.Geometry()
	etaBP, bpwBP := xbp.Geometry()
	if eta128 != 128 || etaBP != 128 {
		t.Fatal("eta")
	}
	// 1000 bases: ceil(1000/128)=8 blocks or lines, 64 B each; the
	// bit-plane table keeps Occ128's 0.5 B/base.
	if o128.MemFootprint() != 8*64 {
		t.Errorf("Occ128 footprint = %d", o128.MemFootprint())
	}
	if obp.MemFootprint() != o128.MemFootprint() {
		t.Errorf("OccBP footprint = %d, want Occ128's %d", obp.MemFootprint(), o128.MemFootprint())
	}
	// Words scanned for a mid-bucket query: Occ128 touches 32-base words,
	// OccBP at most two 64-base words.
	words := func(k, eta, bpw int) int { return k%eta/bpw + 1 }
	if words(64, eta128, bpw128) != 3 || bpw128 != 32 {
		t.Errorf("Occ128 words for k=64: %d", words(64, eta128, bpw128))
	}
	if words(63, etaBP, bpwBP) != 1 || words(64, etaBP, bpwBP) != 2 || words(127, etaBP, bpwBP) != 2 || bpwBP != 64 {
		t.Errorf("OccBP words for k=63/64/127: %d/%d/%d",
			words(63, etaBP, bpwBP), words(64, etaBP, bpwBP), words(127, etaBP, bpwBP))
	}
}

func TestCount2bitEdge(t *testing.T) {
	// Word with all slots = 0 ('A'): count of A in m slots is m.
	for m := 0; m <= 32; m++ {
		if got := count2bit(0, 0, m); got != m {
			t.Fatalf("count2bit(0,0,%d) = %d", m, got)
		}
		if got := count2bit(0, 1, m); got != 0 {
			t.Fatalf("count2bit(0,1,%d) = %d", m, got)
		}
	}
	// All slots = 3.
	w := ^uint64(0)
	for m := 0; m <= 32; m++ {
		if got := count2bit(w, 3, m); got != m {
			t.Fatalf("count2bit(ff,3,%d) = %d", m, got)
		}
	}
}

// benchColumn returns a 1 Mbp column and 4096 random positions in it. The
// benchmarks below call Count4 directly (not through occSource) so each
// table's inlining is what is measured.
func benchColumn() ([]byte, []int) {
	b0 := randB0(rand.New(rand.NewSource(5)), 1<<20)
	rng := rand.New(rand.NewSource(6))
	ks := make([]int, 4096)
	for i := range ks {
		ks[i] = rng.Intn(len(b0))
	}
	return b0, ks
}

func BenchmarkOcc128Count4(b *testing.B) {
	b0, ks := benchColumn()
	o := NewOcc128(b0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Count4(ks[i&4095])
	}
}

func BenchmarkOccBPCount4(b *testing.B) {
	b0, ks := benchColumn()
	o := NewOccBP(b0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Count4(ks[i&4095])
	}
}

// TestRankPath reports which rank engine an Optimized index runs, and
// fails if the amd64 kernel is available but was not chosen.
func TestRankPath(t *testing.T) {
	x, _, err := Build(doubledText(randText(rand.New(rand.NewSource(3)), 500)), Optimized)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rank engine %d (%d = amd64 kernel), kernel available %v", x.rank, rankKernel, haveRankKernel)
	if haveRankKernel != (x.rank == rankKernel) {
		t.Fatalf("kernel available %v but the index chose engine %d", haveRankKernel, x.rank)
	}
}
