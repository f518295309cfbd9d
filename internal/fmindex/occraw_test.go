package fmindex

import (
	"math/rand"
	"testing"
)

// occSource abstracts the tables for the shared differential checks.
type occSource interface {
	Count(c byte, k int) int
	Count4(k int) [4]int
}

func checkOccEqual(t *testing.T, want, got occSource, n int, label string) {
	t.Helper()
	step := 1
	if n > 512 {
		step = n / 512
	}
	for k := -1; k < n; k += step {
		for c := byte(0); c < 4; c++ {
			if w, g := want.Count(c, k), got.Count(c, k); w != g {
				t.Fatalf("%s: Count(%d, %d) = %d, want %d", label, c, k, g, w)
			}
		}
		if w, g := want.Count4(k), got.Count4(k); w != g {
			t.Fatalf("%s: Count4(%d) = %v, want %v", label, k, g, w)
		}
	}
}

func TestOccRawRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000, 4097} {
		b0 := make([]byte, n)
		for i := range b0 {
			b0[i] = byte(rng.Intn(4))
		}
		obp := NewOccBP(b0)

		rawBP := obp.Raw()
		if len(rawBP) != OccBPLines(n)*occEntryBytes {
			t.Fatalf("n=%d: occbp raw is %d bytes", n, len(rawBP))
		}

		// Aligned path (aliases on little-endian hosts).
		rbp, err := OccBPFromRaw(rawBP, n)
		if err != nil {
			t.Fatal(err)
		}
		checkOccEqual(t, obp, rbp, n, "occbp aligned")

		// A misaligned copy forces the explicit decode path even on
		// little-endian hosts.
		buf := make([]byte, len(rawBP)+1)
		copy(buf[1:], rawBP)
		mbp, err := OccBPFromRaw(buf[1:], n)
		if err != nil {
			t.Fatal(err)
		}
		checkOccEqual(t, obp, mbp, n, "occbp misaligned")
	}
}

func TestOccFromRawRejectsBadLength(t *testing.T) {
	b0 := []byte{0, 1, 2, 3, 0, 1}
	rawBP := NewOccBP(b0).Raw()
	if _, err := OccBPFromRaw(rawBP[:0], len(b0)); err == nil {
		t.Fatal("empty occbp section should not parse")
	}
	if _, err := OccBPFromRaw(rawBP[:len(rawBP)-1], len(b0)); err == nil {
		t.Fatal("short occbp section should not parse")
	}
	if _, err := OccBPFromRaw(rawBP, len(b0)+200); err == nil {
		t.Fatal("occbp section for the wrong text length should not parse")
	}
}

func TestNewFromPartsUsesProvidedTable(t *testing.T) {
	b0 := make([]byte, 500)
	rng := rand.New(rand.NewSource(12))
	for i := range b0 {
		b0[i] = byte(rng.Intn(4))
	}
	// A BWT over b0 as its stored column (contents are arbitrary for the
	// occurrence table itself).
	idx, _, err := Build(b0, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	pre := NewOccBP(idx.B.B0)
	x := NewFromParts(idx.B, Optimized, pre)
	if x.occBP != pre {
		t.Fatal("NewFromParts did not adopt the provided bit-plane table")
	}
	// Wrong-size table is ignored, not adopted.
	wrong := NewOccBP(b0[:100])
	x = NewFromParts(idx.B, Optimized, wrong)
	if x.occBP == wrong {
		t.Fatal("NewFromParts adopted a table of the wrong length")
	}
	checkOccEqual(t, NewOccBP(idx.B.B0), x.occBP, idx.B.N, "rebuilt occbp")
	// The baseline flavor ignores a bit-plane table and builds its own.
	if x = NewFromParts(idx.B, Baseline, pre); x.occBP != nil || x.occ128 == nil {
		t.Fatal("baseline index adopted the bit-plane table")
	}
}
