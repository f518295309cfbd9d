package bsw

import (
	"bytes"
	"math/rand"
	"testing"
)

// refGlobalDense is an independent, unbanded affine-gap global aligner
// (score only), for cross-checking Global when the band is wide enough not
// to matter.
func refGlobalDense(p *Params, query, target []byte) int {
	qlen, tlen := len(query), len(target)
	neg := int(minusInf)
	H := make([][]int, tlen+1)
	E := make([][]int, tlen+1) // gap in query (consumes target)
	F := make([][]int, tlen+1) // gap in target (consumes query)
	for i := range H {
		H[i] = make([]int, qlen+1)
		E[i] = make([]int, qlen+1)
		F[i] = make([]int, qlen+1)
	}
	for i := 0; i <= tlen; i++ {
		for j := 0; j <= qlen; j++ {
			H[i][j], E[i][j], F[i][j] = neg, neg, neg
		}
	}
	H[0][0] = 0
	for i := 1; i <= tlen; i++ {
		E[i][0] = -(p.ODel + p.EDel*i)
		H[i][0] = E[i][0]
	}
	for j := 1; j <= qlen; j++ {
		F[0][j] = -(p.OIns + p.EIns*j)
		H[0][j] = F[0][j]
	}
	for i := 1; i <= tlen; i++ {
		for j := 1; j <= qlen; j++ {
			e := E[i-1][j] - p.EDel
			if v := H[i-1][j] - p.ODel - p.EDel; v > e {
				e = v
			}
			E[i][j] = e
			f := F[i][j-1] - p.EIns
			if v := H[i][j-1] - p.OIns - p.EIns; v > f {
				f = v
			}
			F[i][j] = f
			h := H[i-1][j-1] + int(p.Mat[int(target[i-1])*5+int(query[j-1])])
			if e > h {
				h = e
			}
			if f > h {
				h = f
			}
			H[i][j] = h
		}
	}
	return H[tlen][qlen]
}

// Global is GlobalBuf.Global over a fresh buffer, so the Cigar it returns is
// the caller's own.
func Global(p *Params, query, target []byte, w, floor int) (int, Cigar) {
	var b GlobalBuf
	return b.Global(p, query, target, w, floor)
}

// setGlobalFill, where global_amd64.s is built, switches haveGlobalVec and
// returns a function that restores it (job16_amd64_test.go); elsewhere it
// is nil.
var setGlobalFill func(on bool) (restore func())

// eachGlobalFill runs test once per fill Global can take: fill=go with the
// vector fill switched off where it could run, and fill=vec, skipped where
// globalJob32 cannot run.
func eachGlobalFill(t *testing.T, test func(t *testing.T)) {
	t.Run("fill=go", func(t *testing.T) {
		if haveGlobalVec {
			defer setGlobalFill(false)()
		}
		test(t)
	})
	t.Run("fill=vec", func(t *testing.T) {
		if !haveGlobalVec {
			t.Skip("globalJob32 does not run on this CPU/build")
		}
		test(t)
	})
}

// cigarScore replays an alignment described by a CIGAR and recomputes its
// score, verifying consistency of ops with sequence lengths.
func cigarScore(t *testing.T, p *Params, query, target []byte, cig Cigar) int {
	t.Helper()
	qi, ti, score := 0, 0, 0
	for _, e := range cig {
		n := int(e >> 4)
		switch e & 0xf {
		case CigarMatch:
			for k := 0; k < n; k++ {
				score += int(p.Mat[int(target[ti])*5+int(query[qi])])
				qi++
				ti++
			}
		case CigarIns:
			score -= p.OIns + p.EIns*n
			qi += n
		case CigarDel:
			score -= p.ODel + p.EDel*n
			ti += n
		default:
			t.Fatalf("unexpected op in %v", cig)
		}
	}
	if qi != len(query) || ti != len(target) {
		t.Fatalf("cigar %v consumes (%d,%d), want (%d,%d)", cig, qi, ti, len(query), len(target))
	}
	return score
}

func TestGlobalPerfectAndTrivial(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(61))
	s := randSeq(rng, 30)
	score, cig := Global(&p, s, s, 10, int(minusInf))
	if score != 30 || cig.String() != "30M" {
		t.Fatalf("perfect: score=%d cigar=%s", score, cig)
	}
	// Empty cases.
	if sc, cg := Global(&p, nil, nil, 5, int(minusInf)); sc != 0 || cg != nil {
		t.Fatal("empty/empty")
	}
	if sc, cg := Global(&p, nil, s[:4], 5, int(minusInf)); sc != -(p.ODel+4*p.EDel) || cg.String() != "4D" {
		t.Fatalf("empty query: %d %s", sc, cg)
	}
	if sc, cg := Global(&p, s[:4], nil, 5, int(minusInf)); sc != -(p.OIns+4*p.EIns) || cg.String() != "4I" {
		t.Fatalf("empty target: %d %s", sc, cg)
	}
}

func TestGlobalMatchesDenseReference(t *testing.T) {
	eachGlobalFill(t, func(t *testing.T) {
		p := DefaultParams()
		rng := rand.New(rand.NewSource(62))
		for trial := 0; trial < 300; trial++ {
			qlen := 1 + rng.Intn(30)
			tlen := 1 + rng.Intn(30)
			var q, tg []byte
			if trial%3 == 0 {
				q, tg = randSeq(rng, qlen), randSeq(rng, tlen)
			} else {
				q = randSeq(rng, qlen)
				tg = mutate(rng, q, rng.Intn(4))
				if rng.Intn(2) == 0 && len(tg) > 2 { // simulate indel
					cut := 1 + rng.Intn(len(tg)/2)
					at := rng.Intn(len(tg) - cut)
					tg = append(tg[:at], tg[at+cut:]...)
				}
			}
			want := refGlobalDense(&p, q, tg)
			got, cig := Global(&p, q, tg, 100, int(minusInf))
			if got != want {
				t.Fatalf("trial %d: q=%v t=%v: score %d, want %d", trial, q, tg, got, want)
			}
			if rescore := cigarScore(t, &p, q, tg, cig); rescore != got {
				t.Fatalf("trial %d: cigar %s rescores to %d, reported %d", trial, cig, rescore, got)
			}
		}
	})
}

func TestGlobalNarrowBandStillConsistent(t *testing.T) {
	eachGlobalFill(t, func(t *testing.T) {
		// With a narrow band the score may be suboptimal, but the CIGAR must
		// still rescore to exactly the reported score.
		p := DefaultParams()
		rng := rand.New(rand.NewSource(63))
		for trial := 0; trial < 200; trial++ {
			q := randSeq(rng, 5+rng.Intn(40))
			tg := mutate(rng, q, rng.Intn(5))
			if rng.Intn(2) == 0 {
				tg = append(tg, randSeq(rng, rng.Intn(6))...)
			}
			w := 1 + rng.Intn(4)
			got, cig := Global(&p, q, tg, w, int(minusInf))
			if rescore := cigarScore(t, &p, q, tg, cig); rescore != got {
				t.Fatalf("trial %d w=%d: cigar %s rescores to %d, reported %d", trial, w, cig, rescore, got)
			}
		}
	})
}

func TestCigarHelpers(t *testing.T) {
	var c Cigar
	c = c.PushOp(CigarMatch, 10)
	c = c.PushOp(CigarMatch, 5) // merges
	c = c.PushOp(CigarIns, 2)
	c = c.PushOp(CigarDel, 3)
	c = c.PushOp(CigarSoft, 4)
	if c.String() != "15M2I3D4S" {
		t.Fatalf("cigar string: %s", c)
	}
	q, tl := c.Lens()
	if q != 15+2+4 || tl != 15+3 {
		t.Fatalf("lens: %d %d", q, tl)
	}
	if Cigar(nil).String() != "*" {
		t.Fatal("empty cigar string")
	}
	if got := c.PushOp(CigarMatch, 0); len(got) != len(c) {
		t.Fatal("zero-length push should be a no-op")
	}
}

// FuzzGlobal requires the floor-pruned Global to return the frozen oracle's
// score and CIGAR for floors below, at, above and far above the oracle's
// score, and for minusInf, with the CIGAR rescoring to the score.
func FuzzGlobal(f *testing.F) {
	rng := rand.New(rand.NewSource(64))
	s := randSeq(rng, 30)
	f.Add([]byte(nil), []byte(nil), uint8(0), uint8(3), uint8(6), uint8(0), uint8(6), uint8(0), uint8(5), uint8(3))
	f.Add([]byte(nil), s[:4], uint8(0), uint8(3), uint8(6), uint8(0), uint8(6), uint8(0), uint8(5), uint8(3))
	f.Add(s[:4], []byte(nil), uint8(0), uint8(3), uint8(6), uint8(0), uint8(6), uint8(0), uint8(5), uint8(3))
	f.Add(s, s, uint8(0), uint8(3), uint8(6), uint8(0), uint8(6), uint8(0), uint8(10), uint8(1))
	f.Add(s, mutate(rng, s, 5)[3:], uint8(2), uint8(5), uint8(0), uint8(3), uint8(11), uint8(1), uint8(2), uint8(7))
	// On the ungapped shortcut's bound (see Global): 101-mers under BWA's
	// scores with 2 and 3 mismatches (bound 86: 91 takes the shortcut, 86
	// does not), an N on either side, asymmetric gap costs, lengths one
	// apart, where the shortcut must not fire, and a 3-mer whose ungapped
	// score equals the bound and ties a gapped path.
	r := randSeq(rng, 101)
	m2, m3 := withMismatches(r, 10, 60), withMismatches(r, 10, 60, 95)
	nq := append([]byte(nil), r...)
	nq[50] = 4
	f.Add(r, m2, uint8(0), uint8(3), uint8(6), uint8(0), uint8(6), uint8(0), uint8(0), uint8(1))
	f.Add(r, m3, uint8(0), uint8(3), uint8(6), uint8(0), uint8(6), uint8(0), uint8(0), uint8(1))
	f.Add(nq, m2, uint8(0), uint8(3), uint8(6), uint8(0), uint8(6), uint8(0), uint8(3), uint8(1))
	f.Add(m3, nq, uint8(0), uint8(3), uint8(6), uint8(0), uint8(6), uint8(0), uint8(3), uint8(1))
	f.Add(r, m3, uint8(0), uint8(3), uint8(1), uint8(3), uint8(12), uint8(0), uint8(5), uint8(2))
	f.Add(r, m2[1:], uint8(0), uint8(3), uint8(6), uint8(0), uint8(6), uint8(0), uint8(0), uint8(1))
	f.Add(r[1:], m2, uint8(0), uint8(3), uint8(6), uint8(0), uint8(6), uint8(0), uint8(0), uint8(1))
	f.Add([]byte{3, 0, 3}, []byte{3, 3, 3}, uint8(1), uint8(3), uint8(0), uint8(0), uint8(2), uint8(0), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, rawQ, rawT []byte, match, mis, oDel, eDel, oIns, eIns, w, d uint8) {
		if len(rawQ) > 300 || len(rawT) > 300 {
			return
		}
		p := fuzzParams(match, mis, oDel, eDel, oIns, eIns, 0, 0)
		query, target := fuzzSeq(rawQ), fuzzSeq(rawT)
		bw := int(w) % 151
		want, wantCig := refGlobal(&p, query, target, bw, true)
		if rescore := cigarScore(t, &p, query, target, wantCig); rescore != want {
			t.Fatalf("oracle cigar %s rescores to %d, reported %d", wantCig, rescore, want)
		}
		k := 1 + int(d)%20
		for _, floor := range []int{want - k, want, want + k, want + 1000, int(minusInf)} {
			got, cig := Global(&p, query, target, bw, floor)
			if got != want || cig.String() != wantCig.String() {
				t.Fatalf("w=%d floor=%d %+v: got %d %s, want %d %s", bw, floor, p, got, cig, want, wantCig)
			}
		}
	})
}

// TestGlobalFloorMatchesOracle drives the floor pruning where it bites:
// related sequences with substitutions, Ns and indels, random scoring and
// band, floors around the optimum.
func TestGlobalFloorMatchesOracle(t *testing.T) {
	eachGlobalFill(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(65))
		for trial := 0; trial < 3000; trial++ {
			b := make([]byte, 8)
			rng.Read(b)
			p := fuzzParams(b[0], b[1], b[2], b[3], b[4], b[5], 0, 0)
			q := randSeq(rng, 1+rng.Intn(150))
			tg := mutate(rng, q, rng.Intn(1+len(q)/8))
			for k := rng.Intn(4); k > 0; k-- {
				at := rng.Intn(len(tg))
				if n := 1 + rng.Intn(6); rng.Intn(2) == 0 {
					tg = append(tg[:at:at], append(randSeq(rng, n), tg[at:]...)...)
				} else if at+n < len(tg) {
					tg = append(tg[:at:at], tg[at+n:]...)
				}
			}
			if rng.Intn(4) == 0 {
				tg[rng.Intn(len(tg))] = 4
			}
			w := rng.Intn(40)
			want, wantCig := refGlobal(&p, q, tg, w, true)
			for _, floor := range []int{want - 1 - rng.Intn(10), want, want + 1 + rng.Intn(10), int(minusInf)} {
				got, cig := Global(&p, q, tg, w, floor)
				if got != want || cig.String() != wantCig.String() {
					t.Fatalf("trial %d w=%d floor=%d %+v: got %d %s, want %d %s", trial, w, floor, p, got, cig, want, wantCig)
				}
			}
		}
	})
}

// withMismatches copies s with the base at each of the given positions
// replaced by a different one.
func withMismatches(s []byte, at ...int) []byte {
	out := append([]byte(nil), s...)
	for _, i := range at {
		out[i] = (out[i] + 1) & 3
	}
	return out
}

// TestGlobalUngappedBound checks Global against the frozen oracle on and
// around the ungapped shortcut's bound, (L-1)*a - (oIns+eIns) - (oDel+eDel),
// and that the shortcut fires exactly where the bound says. All cases share
// one GlobalBuf, so each also runs over the previous case's scratch.
func TestGlobalUngappedBound(t *testing.T) {
	eachGlobalFill(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(66))
		r := randSeq(rng, 101)
		def := DefaultParams()
		withN := func(s []byte, i int) []byte {
			out := append([]byte(nil), s...)
			out[i] = 4
			return out
		}
		// A matrix whose largest entry is 0: matches score 0, mismatches -3.
		zero := def
		zero.Mat = FillScoreMatrix(0, 3)
		// Asymmetric gaps: insertions cheap to open, deletions cheap to extend.
		asym := def
		asym.OIns, asym.EIns, asym.ODel, asym.EDel = 2, 3, 9, 1
		free := def
		free.OIns, free.EIns, free.ODel, free.EDel = 0, 0, 0, 0
		// Ungapped TAT against TTT scores 2-4+2 = 0, exactly the bound
		// 2*2 - (2+1) - (0+1), and 1D1M1I1M ties it: on the bound the shortcut
		// must not fire, since the DP returns the gapped tie.
		tie := Params{Mat: FillScoreMatrix(2, 4), ODel: 0, EDel: 1, OIns: 2, EIns: 1}
		var b GlobalBuf
		for _, c := range []struct {
			name     string
			p        Params
			q, tg    []byte
			shortcut bool
		}{
			{"0 mismatches", def, r, r, true},
			{"1 mismatch", def, r, withMismatches(r, 50), true},
			{"2 mismatches", def, r, withMismatches(r, 0, 100), true},
			{"3 mismatches (score = bound)", def, r, withMismatches(r, 20, 40, 60), false},
			{"3 adjacent mismatches", def, r, withMismatches(r, 50, 51, 52), false},
			{"N in query", def, withN(r, 7), r, true},
			{"N in target", def, r, withN(r, 93), true},
			{"N on both sides and 2 mismatches", def, withN(r, 3), withN(withMismatches(r, 40, 41), 3), true},
			{"largest entry 0", zero, r, r, true},
			{"largest entry 0, 1 mismatch", zero, r, withMismatches(r, 30), true},
			{"largest entry 0, 5 mismatches", zero, r, withMismatches(r, 1, 2, 3, 4, 5), false},
			{"asymmetric gaps, 3 mismatches (bound 85)", asym, r, withMismatches(r, 10, 50, 90), true},
			{"asymmetric gaps, 4 mismatches", asym, r, withMismatches(r, 10, 50, 90, 91), false},
			{"zero gap costs, exact", free, r, r, true},
			{"zero gap costs, 1 mismatch", free, r, withMismatches(r, 50), false},
			{"score = bound, gapped tie", tie, []byte{3, 0, 3}, []byte{3, 3, 3}, false},
			{"qlen = tlen + 1", def, r, r[1:], false},
			{"qlen = tlen - 1", def, r[:100], r, false},
		} {
			_, fired := ungapped(&c.p, c.q, c.tg)
			if fired != c.shortcut {
				t.Errorf("%s: shortcut fired = %v, want %v", c.name, fired, c.shortcut)
			}
			for _, w := range []int{0, 1, 5, 30} {
				want, wantCig := refGlobal(&c.p, c.q, c.tg, w, true)
				for _, floor := range []int{want - 3, want, want + 3, int(minusInf)} {
					got, cig := b.Global(&c.p, c.q, c.tg, w, floor)
					if got != want || cig.String() != wantCig.String() {
						t.Fatalf("%s w=%d floor=%d: got %d %s, want %d %s", c.name, w, floor, got, cig, want, wantCig)
					}
				}
			}
		}
	})
}

// TestGlobalBufReuse runs random gapped and ungapped alignments of varied
// shapes through one GlobalBuf: what an earlier call left in the direction
// matrix, the rows or the CIGAR must not leak into a later result.
func TestGlobalBufReuse(t *testing.T) {
	eachGlobalFill(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(67))
		var b GlobalBuf
		for trial := 0; trial < 2000; trial++ {
			k := make([]byte, 6)
			rng.Read(k)
			p := fuzzParams(k[0], k[1], k[2], k[3], k[4], k[5], 0, 0)
			q := randSeq(rng, 1+rng.Intn(120))
			tg := mutate(rng, q, rng.Intn(1+len(q)/10))
			if at := rng.Intn(len(tg)); rng.Intn(2) == 0 {
				tg = append(tg[:at:at], tg[at+rng.Intn(len(tg)-at):]...)
			}
			if len(tg) == 0 {
				continue
			}
			w := rng.Intn(20)
			want, wantCig := refGlobal(&p, q, tg, w, true)
			got, cig := b.Global(&p, q, tg, w, want-rng.Intn(5))
			if got != want || cig.String() != wantCig.String() {
				t.Fatalf("trial %d w=%d %+v: got %d %s, want %d %s", trial, w, p, got, cig, want, wantCig)
			}
		}
	})
}

// FuzzGlobalFill requires globalFillVec to match the Go fill cell for cell
// wherever globalVecFits admits the job: h and e, every direction byte, the
// score and ok. Both fills start from the same garbage in every buffer, so
// a cell one fill writes and the other does not shows too. The inputs reach
// the guard's edge (the top bit of a gap cost selects costs up to 2^23,
// which put short pairs on either side of it), int8 scores down to -128,
// floors around the optimum, above reach and past int32, bands narrower
// than the length difference (Global widens them, as here), one-cell rows,
// rows of 16 and 17 cells, and a row that extends along F alone.
func FuzzGlobalFill(f *testing.F) {
	rng := rand.New(rand.NewSource(69))
	q := randSeq(rng, 120)
	gapped := append(mutate(rng, q[:60], 3), q[63:]...)
	edge := uint32(1<<31 | 1<<22 - 1) // oDel 2^22-1: with eDel 1, (24+24+16)*2^22 = 2^28, on the guard
	f.Add(q[:24], mutate(rng, q[:24], 4), uint8(1), uint8(4), edge, uint32(1), uint32(6), uint32(1), uint16(5), uint8(1), int64(0))
	f.Add(q[:24], mutate(rng, q[:24], 4), uint8(1), uint8(4), edge+1, uint32(1), uint32(6), uint32(1), uint16(5), uint8(1), int64(0))
	f.Add(q[:23], mutate(rng, q[:24], 4), uint8(1), uint8(4), edge+1, uint32(1), uint32(6), uint32(1), uint16(5), uint8(1), int64(0))
	f.Add(q, gapped, uint8(1), uint8(4), uint32(6), uint32(1), uint32(6), uint32(1), uint16(100), uint8(0), int64(0))
	f.Add(q, gapped, uint8(1), uint8(4), uint32(6), uint32(1), uint32(6), uint32(1), uint16(100), uint8(0), int64(63))
	f.Add(q, gapped, uint8(127), uint8(128), uint32(0), uint32(0), uint32(1), uint32(0), uint16(7), uint8(2), int64(1)<<40)
	f.Add(q, gapped, uint8(2), uint8(128), uint32(3), uint32(2), uint32(0), uint32(1), uint16(7), uint8(2), -int64(1)<<40)
	f.Add(q[:40], q[10:30], uint8(1), uint8(4), uint32(6), uint32(1), uint32(6), uint32(1), uint16(3), uint8(1), int64(0))
	f.Add(q[:1], q[:5], uint8(1), uint8(4), uint32(6), uint32(1), uint32(6), uint32(1), uint16(0), uint8(0), int64(0))
	f.Add(q[:16], mutate(rng, q[:16], 3)[1:], uint8(1), uint8(4), uint32(6), uint32(1), uint32(6), uint32(1), uint16(40), uint8(1), int64(0))
	f.Add(q[:17], mutate(rng, q[:17], 3)[1:], uint8(1), uint8(4), uint32(6), uint32(1), uint32(6), uint32(1), uint16(40), uint8(1), int64(0))
	// Free gap extensions: a deletion run feeds an insertion past the
	// previous row's live span, so the row extends along F alone.
	f.Add([]byte{3, 3, 3}, []byte{0, 0, 4, 3}, uint8(87), uint8(4), uint32(7), uint32(0), uint32(4), uint32(0), uint16(75), uint8(0), int64(0))
	f.Fuzz(func(t *testing.T, rawQ, rawT []byte, match, mis uint8, oDel, eDel, oIns, eIns uint32, w uint16, mode uint8, floor int64) {
		if !haveGlobalVec {
			t.Skip("globalJob32 does not run on this CPU/build")
		}
		if len(rawQ) == 0 || len(rawT) == 0 || len(rawQ) > 300 || len(rawT) > 300 {
			return
		}
		g := func(v uint32) int { // up to 63, or up to 2^23 with the top bit set
			if v < 1<<31 {
				return int(v % 64)
			}
			return int(v % (1 << 23))
		}
		p := Params{Mat: FillScoreMatrix(int(match)%128, int(mis)%129), ODel: g(oDel), EDel: g(eDel), OIns: g(oIns), EIns: g(eIns)}
		query, target := fuzzSeq(rawQ), fuzzSeq(rawT)
		if !globalVecFits(&p, len(query), len(target)) {
			return
		}
		var gb, vb GlobalBuf
		bw, nCol := gb.grow(len(query), len(target), int(w)%320)
		vb.grow(len(query), len(target), int(w)%320)
		gb.qp = make([]int8, 5*len(query))
		fillProfile(gb.qp, &p, query)
		fl := int(floor)
		switch mode % 3 {
		case 0: // around the optimum
			want, _ := globalFill(&p, gb.qp, target, bw, nCol, int(minusInf), gb.h, gb.e, gb.z)
			fl = want + int(floor%64)
		case 1:
			fl = int(minusInf)
		}
		for i := range gb.z {
			gb.z[i], vb.z[i] = byte(i*7+3), byte(i*7+3)
		}
		for i := range gb.h {
			gb.h[i], vb.h[i] = int32(i*-7919), int32(i*-7919)
			gb.e[i], vb.e[i] = int32(i*104729), int32(i*104729)
		}
		gs, gok := globalFill(&p, gb.qp, target, bw, nCol, fl, gb.h, gb.e, gb.z)
		vs, vok := globalFillVec(&p, query, target, bw, nCol, fl, vb.h, vb.e, vb.z)
		if gs != vs || gok != vok {
			t.Fatalf("w=%d floor=%d %+v: vector fill (%d, %v), Go fill (%d, %v)", bw, fl, p, vs, vok, gs, gok)
		}
		for j := range gb.h {
			if gb.h[j] != vb.h[j] || gb.e[j] != vb.e[j] {
				t.Fatalf("w=%d floor=%d %+v: column %d: vector fill h %d e %d, Go fill h %d e %d", bw, fl, p, j, vb.h[j], vb.e[j], gb.h[j], gb.e[j])
			}
		}
		for k := range gb.z {
			if gb.z[k] != vb.z[k] {
				t.Fatalf("w=%d floor=%d %+v: direction byte (%d,%d): vector fill %#x, Go fill %#x", bw, fl, p, k/nCol, k%nCol, vb.z[k], gb.z[k])
			}
		}
	})
}

// TestGlobalVecFitsEdge pins globalVecFits' edge, which FuzzGlobalFill's
// seeds straddle: (qlen+tlen+16)*max(128, oDel+eDel, oIns+eIns) <= 2^28.
func TestGlobalVecFitsEdge(t *testing.T) {
	def := DefaultParams()
	for _, c := range []struct {
		name       string
		edit       func(p *Params)
		qlen, tlen int
		want       bool
	}{
		{"defaults, 250 bp", func(*Params) {}, 250, 253, true},
		{"defaults, lengths on the edge", func(*Params) {}, 1 << 20, 1<<20 - 16, true},
		{"defaults, one base past it", func(*Params) {}, 1 << 20, 1<<20 - 15, false},
		{"deletion costs on the edge", func(p *Params) { p.ODel, p.EDel = 1<<22-1, 1 }, 24, 24, true},
		{"deletion costs one past it", func(p *Params) { p.ODel, p.EDel = 1<<22, 1 }, 24, 24, false},
		{"insertion costs one past it", func(p *Params) { p.OIns, p.EIns = 1<<21, 1<<21+1 }, 24, 24, false},
		{"negative gap open", func(p *Params) { p.OIns = -1 }, 24, 24, false},
	} {
		p := def
		c.edit(&p)
		if got := globalVecFits(&p, c.qlen, c.tlen); got != c.want {
			t.Errorf("%s: globalVecFits = %v, want %v", c.name, got, c.want)
		}
	}
}

// BenchmarkGlobal times GlobalBuf.Global on gapped 250 bp pairs drawn at
// se250div's rates (substitutions 0.04, one 1-3 bp indel in half the
// reads), keeping only those the ungapped shortcut does not settle. Each
// pair gets what SAM-FORM's genCigar passes: the optimum as the floor, as
// the extension's score is, and the band inferBW derives from it.
// fill=go switches the vector fill off where it could run; fill=vec is
// skipped where it cannot. cells/row is the mean number of cells a call
// computes in each row it reaches, rows/call the rows it reaches.
func BenchmarkGlobal(b *testing.B) {
	p := DefaultParams()
	pairs := gappedPairs(&p, 256)
	for _, c := range []struct {
		name string
		vec  bool
	}{{"fill=go", false}, {"fill=vec", true}} {
		b.Run(c.name, func(b *testing.B) {
			switch {
			case c.vec && !haveGlobalVec:
				b.Skip("globalJob32 does not run on this CPU/build")
			case !c.vec && haveGlobalVec:
				defer setGlobalFill(false)()
			}
			var gb GlobalBuf
			cells, rows := 0, 0
			for _, c := range pairs {
				gb.Global(&p, c.q, c.t, c.w, c.floor)
				for i := range gb.z {
					gb.z[i] = 0xff // no direction byte has bit 7 set
				}
				gb.Global(&p, c.q, c.t, c.w, c.floor)
				nCol := len(gb.z) / len(c.t)
				for z := gb.z; len(z) > 0; z = z[nCol:] {
					if n := nCol - bytes.Count(z[:nCol], []byte{0xff}); n > 0 {
						cells += n
						rows++
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := &pairs[i%len(pairs)]
				gb.Global(&p, c.q, c.t, c.w, c.floor)
			}
			b.ReportMetric(float64(cells)/float64(rows), "cells/row")
			b.ReportMetric(float64(rows)/float64(len(pairs)), "rows/call")
		})
	}
}

// globalPair is one of BenchmarkGlobal's calls.
type globalPair struct {
	q, t     []byte
	w, floor int
}

// gappedPairs draws n of BenchmarkGlobal's pairs: a 250 bp read from a
// random reference, one 1-3 bp deletion or insertion with probability 1/2,
// then substitutions at rate 0.04, against the reference span it covers.
func gappedPairs(p *Params, n int) []globalPair {
	rng := rand.New(rand.NewSource(68))
	var out []globalPair
	for len(out) < n {
		ref := randSeq(rng, 260)
		read, span := append([]byte(nil), ref...), 250
		if rng.Intn(2) == 0 {
			k := 1 + rng.Intn(3)
			at := 5 + rng.Intn(240-k)
			if rng.Intn(2) == 0 {
				read, span = append(read[:at:at], read[at+k:]...), span+k
			} else {
				read, span = append(read[:at:at], append(randSeq(rng, k), read[at:]...)...), span-k
			}
		}
		read = read[:250]
		for i := range read {
			if rng.Float64() < 0.04 {
				read[i] = byte(rng.Intn(4))
			}
		}
		tg := ref[:span]
		if _, ok := ungapped(p, read, tg); ok {
			continue
		}
		score, _ := Global(p, read, tg, 400, int(minusInf))
		w := 0 // inferBW in internal/core, over deletions and insertions
		for _, g := range [][2]int{{p.ODel, p.EDel}, {p.OIns, p.EIns}} {
			m := min(len(read), len(tg))
			w = max(w, int(float64(m*p.MaxMatch()-score-g[0])/float64(g[1])+2), len(read)-len(tg), len(tg)-len(read))
		}
		out = append(out, globalPair{read, tg, min(w, 400), score})
	}
	return out
}
