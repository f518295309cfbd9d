package fmindex

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/seq"
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
	for _, flavor := range []Flavor{Baseline, Optimized} {
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
	for _, flavor := range []Flavor{Baseline, Optimized} {
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
	for k := -1; k <= len(text); k++ {
		for c := byte(0); c < 4; c++ {
			if ob, oo := xb.Occ(c, k), xo.Occ(c, k); ob != oo {
				t.Fatalf("Occ(%d,%d): baseline %d optimized %d", c, k, ob, oo)
			}
		}
	}
}

// bruteRank is the full-matrix row at which pat's interval starts, found by
// scanning the text: one for the sentinel row plus every suffix of text$
// that sorts before all suffixes starting with pat. pat must be non-empty.
func bruteRank(text, pat []byte) int {
	r := 1
	for i := range text {
		s := text[i:]
		j := 0
		for j < len(s) && j < len(pat) && s[j] == pat[j] {
			j++
		}
		if j < len(pat) && (j == len(s) || s[j] < pat[j]) {
			r++
		}
	}
	return r
}

// bruteBi is the bi-interval of pat computed without the index. The empty
// pattern's interval is the whole matrix, rows 0..N.
func bruteBi(text, pat []byte) BiInterval {
	if len(pat) == 0 {
		return BiInterval{K: 0, L: 0, S: len(text) + 1}
	}
	return BiInterval{K: bruteRank(text, pat), L: bruteRank(text, seq.RevComp(pat)), S: countOcc(text, pat)}
}

// checkExtend extends the brute-force interval of pat in both directions
// and checks every entry against the brute-force interval of base+pat
// (backward) or pat+base (forward). QBeg/QEnd are the caller's and must
// come back untouched.
func checkExtend(t *testing.T, x *Index, text, pat []byte) {
	t.Helper()
	ik := bruteBi(text, pat)
	for _, isBack := range []bool{true, false} {
		var ok [4]BiInterval
		for c := range ok {
			ok[c].QBeg, ok[c].QEnd = int32(c), -int32(c)
		}
		x.Extend(ik, isBack, &ok)
		for b := byte(0); b < 4; b++ {
			ext, got := append([]byte{b}, pat...), ok[b]
			if !isBack {
				ext, got = append(append([]byte(nil), pat...), b), ok[3-b]
			}
			want := bruteBi(text, ext)
			if got.K != want.K || got.L != want.L || got.S != want.S {
				t.Fatalf("%v: Extend(%v, back=%v) for %v = %v, brute %v", x.Flavor(), ik, isBack, ext, got, want)
			}
		}
		for c := range ok {
			if ok[c].QBeg != int32(c) || ok[c].QEnd != -int32(c) {
				t.Fatalf("%v: Extend overwrote the caller's QBeg/QEnd: %v", x.Flavor(), ok[c])
			}
		}
	}
}

// countProbe counts the extensions it is shown.
type countProbe struct{ extends int }

func (p *countProbe) Extend(k, l int) { p.extends++ }
func (p *countProbe) Occ(int)         {}
func (p *countProbe) Prefetch(int)    {}

// TestExtendMatchesBruteForce checks Extend against occurrence counts and
// ranks taken straight from the doubled text, for every flavor, traced and
// untraced. The pattern set covers the empty pattern (bounds at rows -1 and
// N), text prefixes (intervals holding the primary row), text suffixes,
// text substrings and random patterns (mostly empty intervals).
func TestExtendMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	texts := [][]byte{doubledText(bytes.Repeat([]byte{0}, 70)), doubledText(bytes.Repeat([]byte{1, 2}, 90))}
	for i := 0; i < 4; i++ {
		texts = append(texts, doubledText(randText(rng, 40+rng.Intn(260))))
	}
	for _, text := range texts {
		n := len(text)
		pats := [][]byte{nil}
		for m := 1; m <= 12; m++ {
			pats = append(pats, text[:m], text[n-m:])
		}
		for p := 0; p < 40; p++ {
			m := 1 + rng.Intn(10)
			if p&1 == 0 {
				pats = append(pats, randText(rng, m))
			} else {
				off := rng.Intn(n - m + 1)
				pats = append(pats, text[off:off+m])
			}
		}
		for _, flavor := range []Flavor{Baseline, Optimized} {
			x, _, err := Build(text, flavor)
			if err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				p := &countProbe{}
				if traced {
					x.SetProbe(p)
				}
				for _, pat := range pats {
					checkExtend(t, x, text, pat)
				}
				x.SetProbe(nil)
				if traced && p.extends != 2*len(pats) {
					t.Fatalf("%v: traced %d extensions, want %d", flavor, p.extends, 2*len(pats))
				}
			}
		}
	}
}

// FuzzExtend runs the brute-force Extend check over a fuzzed text, a
// fuzzed pattern and the text substring of the same length at an offset
// taken from the pattern.
func FuzzExtend(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 3, 1}, []byte{1, 2})
	f.Add(bytes.Repeat([]byte{2}, 150), []byte{2, 2, 2})
	f.Add(bytes.Repeat([]byte{0, 3, 1}, 50), []byte{})
	f.Fuzz(func(t *testing.T, rawText, rawPat []byte) {
		if len(rawText) == 0 || len(rawText) > 400 || len(rawPat) > 16 {
			return
		}
		fwd := make([]byte, len(rawText))
		for i, b := range rawText {
			fwd[i] = b & 3
		}
		text := doubledText(fwd)
		pat := make([]byte, len(rawPat))
		for i, b := range rawPat {
			pat[i] = b & 3
		}
		var sub []byte
		if m := len(pat); m > 0 && m <= len(text) {
			off := int(rawPat[0]) % (len(text) - m + 1)
			sub = text[off : off+m]
		}
		for _, flavor := range []Flavor{Baseline, Optimized} {
			x, _, err := Build(text, flavor)
			if err != nil {
				t.Fatal(err)
			}
			checkExtend(t, x, text, pat)
			checkExtend(t, x, text, sub)
		}
	})
}

// TestOcc4PairMatchesSeparate checks that the two rank bounds Extend reads
// in one table call agree with separate Occ queries at each bound, for
// every flavor, and that the bit-plane pair routine agrees with Count4.
func TestOcc4PairMatchesSeparate(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	text := doubledText(randText(rng, 800))
	for _, flavor := range []Flavor{Baseline, Optimized} {
		x, _, _ := Build(text, flavor)
		n := len(text)
		var ok [4]BiInterval
		for trial := 0; trial < 2000; trial++ {
			a := rng.Intn(n+2) - 1
			b := rng.Intn(n+2) - 1
			if trial&1 == 1 { // a nearby bound, usually in a's bucket
				b = min(a+rng.Intn(64), n)
			}
			a, b = min(a, b), max(a, b)
			// Rank bounds a and b: the interval of rows a+1..b.
			x.Extend(BiInterval{K: a + 1, S: b - a}, true, &ok)
			for c := byte(0); c < 4; c++ {
				ck, cl := x.Occ(c, a), x.Occ(c, b)
				if ok[c].K != x.B.C[c]+ck || ok[c].S != cl-ck {
					t.Fatalf("%v: Extend with bounds (%d,%d), base %d: K=%d S=%d; separate occ %d,%d",
						flavor, a, b, c, ok[c].K, ok[c].S, ck, cl)
				}
			}
			if flavor == Optimized {
				k, l := x.B.RankShift(a), x.B.RankShift(b)
				var ck, cl [4]int
				x.occBP.countPair(k, l, &ck, &cl)
				if ck != x.occBP.Count4(k) || cl != x.occBP.Count4(l) {
					t.Fatalf("countPair(%d,%d) = %v,%v; separate %v,%v",
						k, l, ck, cl, x.occBP.Count4(k), x.occBP.Count4(l))
				}
			}
		}
	}
}
