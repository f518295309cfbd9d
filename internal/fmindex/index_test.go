package fmindex

import (
	"math/rand"
	"testing"

	"repro/internal/memsim"
	"repro/internal/seq"
	"repro/internal/trace"
)

func randText(rng *rand.Rand, n int) []byte {
	t := make([]byte, n)
	for i := range t {
		t[i] = byte(rng.Intn(4))
	}
	return t
}

// doubledText builds forward+revcomp, the only shape BWA ever indexes.
func doubledText(fwd []byte) []byte {
	r, err := seq.NewReference([]string{"c"}, [][]byte{seq.Decode(fwd)})
	if err != nil {
		panic(err)
	}
	return r.Doubled()
}

func hasPrefix(s, pat []byte) bool {
	if len(s) < len(pat) {
		return false
	}
	for i := range pat {
		if s[i] != pat[i] {
			return false
		}
	}
	return true
}

// bruteInterval finds the SA interval of pat by scanning the full-matrix
// suffix array directly.
func bruteInterval(text []byte, fullSA []int32, pat []byte) (k, s int) {
	k = -1
	for r := 0; r < len(fullSA); r++ {
		if hasPrefix(text[fullSA[r]:], pat) {
			if k < 0 {
				k = r
			}
			s++
		} else if k >= 0 {
			break
		}
	}
	return k, s
}

func countOcc(text, pat []byte) int {
	if len(pat) == 0 {
		return 0
	}
	n := 0
	for i := 0; i+len(pat) <= len(text); i++ {
		if hasPrefix(text[i:], pat) {
			n++
		}
	}
	return n
}

// backwardSearch builds the interval of pat via Extend(isBack=true).
func backwardSearch(x *Index, pat []byte) (BiInterval, bool) {
	ik := x.SetIntv(pat[len(pat)-1])
	var ok [4]BiInterval
	for i := len(pat) - 2; i >= 0; i-- {
		x.Extend(ik, true, &ok)
		ik = ok[pat[i]]
		if ik.S <= 0 {
			return ik, false
		}
	}
	return ik, true
}

// forwardSearch builds the interval of pat via Extend(isBack=false).
func forwardSearch(x *Index, pat []byte) (BiInterval, bool) {
	ik := x.SetIntv(pat[0])
	var ok [4]BiInterval
	for i := 1; i < len(pat); i++ {
		x.Extend(ik, false, &ok)
		ik = ok[3-pat[i]]
		if ik.S <= 0 {
			return ik, false
		}
	}
	return ik, true
}

func TestBackwardSearchCountsOccurrences(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, flavor := range []Flavor{Baseline, Optimized, Eta32} {
		for trial := 0; trial < 30; trial++ {
			text := doubledText(randText(rng, 50+rng.Intn(200)))
			x, fullSA, err := Build(text, flavor)
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < 30; p++ {
				plen := 1 + rng.Intn(12)
				pat := randText(rng, plen)
				want := countOcc(text, pat)
				ik, live := backwardSearch(x, pat)
				got := 0
				if live {
					got = ik.S
				} else if ik.S > 0 {
					t.Fatalf("dead interval with positive size")
				}
				if got != want {
					t.Fatalf("%v: pattern %v: interval size %d, want %d", flavor, pat, got, want)
				}
				if live {
					bk, bs := bruteInterval(text, fullSA, pat)
					if ik.K != bk || ik.S != bs {
						t.Fatalf("%v: pattern %v: interval (%d,%d), brute (%d,%d)", flavor, pat, ik.K, ik.S, bk, bs)
					}
				}
			}
		}
	}
}

func TestBiIntervalSymmetry(t *testing.T) {
	// On the doubled text, the L coordinate of a pattern's bi-interval must
	// be the K coordinate of the reverse complement's interval.
	rng := rand.New(rand.NewSource(22))
	text := doubledText(randText(rng, 300))
	x, fullSA, err := Build(text, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 100; p++ {
		pat := randText(rng, 1+rng.Intn(10))
		ik, live := backwardSearch(x, pat)
		if !live {
			continue
		}
		rc := seq.RevComp(pat)
		bk, bs := bruteInterval(text, fullSA, rc)
		if bs != ik.S || bk != ik.L {
			t.Fatalf("pattern %v: L=%d S=%d; revcomp brute interval (%d,%d)", pat, ik.L, ik.S, bk, bs)
		}
	}
}

func TestForwardEqualsBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	text := doubledText(randText(rng, 300))
	x, _, err := Build(text, Baseline)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 100; p++ {
		pat := randText(rng, 1+rng.Intn(10))
		fi, fl := forwardSearch(x, pat)
		bi, bl := backwardSearch(x, pat)
		if fl != bl {
			t.Fatalf("pattern %v: forward live=%v backward live=%v", pat, fl, bl)
		}
		if fl && (fi.K != bi.K || fi.L != bi.L || fi.S != bi.S) {
			t.Fatalf("pattern %v: forward %v != backward %v", pat, fi, bi)
		}
	}
}

func TestLFWalksTextBackwards(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	text := doubledText(randText(rng, 200))
	for _, flavor := range []Flavor{Baseline, Optimized, Eta32} {
		x, fullSA, err := Build(text, flavor)
		if err != nil {
			t.Fatal(err)
		}
		n := len(text)
		for k := 0; k <= n; k++ {
			got := int(fullSA[x.LF(k)])
			want := (int(fullSA[k]) - 1 + n + 1) % (n + 1)
			if got != want {
				t.Fatalf("%v: LF(%d) lands on SA=%d, want %d", flavor, k, got, want)
			}
		}
	}
}

func TestFlavorsAgreeOnOcc(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	text := doubledText(randText(rng, 500))
	xb, _, _ := Build(text, Baseline)
	xo, _, _ := Build(text, Optimized)
	x32, _, _ := Build(text, Eta32)
	for k := -1; k <= len(text); k++ {
		ob, oo, o32 := xb.occ4(k), xo.occ4(k), x32.occ4(k)
		if ob != oo || ob != o32 {
			t.Fatalf("occ4(%d): baseline %v optimized %v eta32 %v", k, ob, oo, o32)
		}
	}
}

func TestTracerCountsAndCache(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	text := doubledText(randText(rng, 2000))
	x, _, _ := Build(text, Optimized)
	tr := &trace.Tracer{Mem: memsim.New(memsim.Scaled()), EnablePrefetch: true}
	x.SetTracer(tr)
	q := randText(rng, 50)
	var buf SMEMBuf
	mems, _ := x.SMEM1(q, 0, 1, &buf, nil)
	x.SetTracer(nil)
	if tr.OccCalls == 0 || tr.OccWords < tr.OccCalls || tr.Extends == 0 {
		t.Fatalf("tracer counters not advancing: %+v", tr)
	}
	if tr.Mem.Stats.Loads == 0 {
		t.Fatal("cache model saw no loads")
	}
	if tr.Prefetches == 0 {
		t.Fatal("optimized flavor should issue prefetch hints")
	}
	_ = mems
}

func TestOcc4PairMatchesSeparate(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	text := doubledText(randText(rng, 800))
	for _, flavor := range []Flavor{Baseline, Optimized, Eta32} {
		x, _, _ := Build(text, flavor)
		n := len(text)
		for trial := 0; trial < 2000; trial++ {
			a := rng.Intn(n+2) - 1
			b := rng.Intn(n+2) - 1
			if trial&1 == 1 { // a nearby bound, usually in a's bucket
				b = min(a+rng.Intn(64), n)
			}
			ck, cl := x.occ4Pair(a, b)
			if ck != x.occ4(a) || cl != x.occ4(b) {
				t.Fatalf("%v: occ4Pair(%d,%d) = %v,%v; separate %v,%v",
					flavor, a, b, ck, cl, x.occ4(a), x.occ4(b))
			}
		}
	}
}

func TestOcc4PairSharedBucketTracesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	text := doubledText(randText(rng, 800))
	for _, flavor := range []Flavor{Optimized, Eta32} {
		x, _, _ := Build(text, flavor)
		tr := &trace.Tracer{}
		x.SetTracer(tr)
		// Rows whose shifted positions share one bucket (η=32 or 128): pick
		// two rows in the same bucket well away from the primary row.
		base := ((x.B.Primary + 64) / 32) * 32
		x.occ4Pair(base+1, base+20)
		if tr.OccCalls != 1 {
			t.Fatalf("%v: shared-bucket pair should cost one visit, got %d", flavor, tr.OccCalls)
		}
		tr.ResetCounters()
		x.occ4Pair(base+1, base+200)
		if tr.OccCalls != 2 {
			t.Fatalf("%v: split pair should cost two visits, got %d", flavor, tr.OccCalls)
		}
	}
}

func TestBaselineNeverPrefetches(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	text := doubledText(randText(rng, 1000))
	x, _, _ := Build(text, Baseline)
	tr := &trace.Tracer{Mem: memsim.New(memsim.Scaled()), EnablePrefetch: true}
	x.SetTracer(tr)
	var buf SMEMBuf
	q := randText(rng, 40)
	x.SMEM1(q, 0, 1, &buf, nil)
	if tr.Prefetches != 0 {
		t.Fatalf("baseline issued %d prefetches", tr.Prefetches)
	}
}
