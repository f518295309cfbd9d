package bsw

import (
	"math/rand"
	"strings"
	"testing"
)

// refExtendDense is an independent full-matrix implementation of the
// extension recurrence (Equations 2-3 plus ksw_extend's M/H separation and
// score trackers) with no band and no dynamic band shrinking. It is only
// comparable to ExtendScalar on inputs where the band never clips and no
// all-zero region appears (see callers), which is exactly how it is used.
func refExtendDense(p *Params, query, target []byte, h0 int) ExtResult {
	qlen, tlen := len(query), len(target)
	oeDel, oeIns := p.ODel+p.EDel, p.OIns+p.EIns
	max0 := func(v int) int {
		if v < 0 {
			return 0
		}
		return v
	}
	// hm[ti][qj]: score after consuming ti target and qj query bases.
	hm := make([][]int, tlen+1)
	mm := make([][]int, tlen+1)
	em := make([][]int, tlen+1)
	fm := make([][]int, tlen+1)
	for i := range hm {
		hm[i] = make([]int, qlen+1)
		mm[i] = make([]int, qlen+1)
		em[i] = make([]int, qlen+1)
		fm[i] = make([]int, qlen+1)
	}
	hm[0][0] = h0
	for qj := 1; qj <= qlen; qj++ {
		hm[0][qj] = max0(h0 - p.OIns - p.EIns*qj)
	}
	max, maxI, maxJ := h0, -1, -1
	maxIE, gscore, maxOff := -1, -1, 0
	for ti := 1; ti <= tlen; ti++ {
		hm[ti][0] = max0(h0 - p.ODel - p.EDel*ti)
		m, mj := 0, -1
		for qj := 1; qj <= qlen; qj++ {
			diag := hm[ti-1][qj-1]
			M := 0
			if diag != 0 {
				M = diag + int(p.Mat[int(target[ti-1])*5+int(query[qj-1])])
			}
			mm[ti][qj] = M
			e := 0
			if ti >= 2 {
				e = em[ti][qj]
			}
			f := 0
			if qj >= 2 {
				f = fm[ti][qj]
			}
			h := M
			if h < e {
				h = e
			}
			if h < f {
				h = f
			}
			hm[ti][qj] = h
			if m <= h {
				m, mj = h, qj-1
			}
			// E for the next row and F for the next column.
			tv := max0(M - oeDel)
			ev := e - p.EDel
			if ev < tv {
				ev = tv
			}
			if ti+1 <= tlen {
				em[ti+1][qj] = ev
			}
			tv = max0(M - oeIns)
			fv := f - p.EIns
			if fv < tv {
				fv = tv
			}
			if qj+1 <= qlen {
				fm[ti][qj+1] = fv
			}
		}
		h1 := hm[ti][qlen]
		if gscore <= h1 {
			maxIE, gscore = ti-1, h1
		}
		if m == 0 {
			break
		}
		if m > max {
			max, maxI, maxJ = m, ti-1, mj
			off := mj - (ti - 1)
			if off < 0 {
				off = -off
			}
			if off > maxOff {
				maxOff = off
			}
		}
	}
	return ExtResult{Score: max, QLE: maxJ + 1, TLE: maxI + 1,
		GTLE: maxIE + 1, GScore: gscore, MaxOff: maxOff}
}

// randSeq returns n random bases.
func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(4))
	}
	return s
}

// mutate copies src applying some substitutions.
func mutate(rng *rand.Rand, src []byte, subs int) []byte {
	out := append([]byte(nil), src...)
	for i := 0; i < subs; i++ {
		out[rng.Intn(len(out))] = byte(rng.Intn(4))
	}
	return out
}

func TestExtendScalarPerfectMatch(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 5, 50, 200} {
		s := randSeq(rng, n)
		h0 := 30
		res := ExtendScalar(&p, s, s, 100, h0, nil, nil)
		want := h0 + n // one match point per base
		if res.Score != want || res.QLE != n || res.TLE != n {
			t.Fatalf("n=%d: %+v, want score %d qle/tle %d", n, res, want, n)
		}
		if res.GScore != want || res.GTLE != n {
			t.Fatalf("n=%d: gscore %d gtle %d, want %d %d", n, res.GScore, res.GTLE, want, n)
		}
		if res.MaxOff != 0 {
			t.Fatalf("n=%d: max_off = %d on the main diagonal", n, res.MaxOff)
		}
	}
}

func TestExtendScalarSingleMismatch(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(42))
	n, h0 := 40, 25
	q := randSeq(rng, n)
	tg := append([]byte(nil), q...)
	tg[20] = (tg[20] + 1) & 3
	res := ExtendScalar(&p, q, tg, 100, h0, nil, nil)
	// Best full extension: h0 + 39 matches - 4 mismatch.
	want := h0 + (n - 1) - 4
	if res.Score != want || res.QLE != n || res.TLE != n {
		t.Fatalf("%+v, want score %d", res, want)
	}
	// Prefix-only alignment would be h0+20 at (20,20); full wins since 60>45.
	if res.GScore != want {
		t.Fatalf("gscore = %d, want %d", res.GScore, want)
	}
}

func TestExtendScalarSingleDeletion(t *testing.T) {
	// Target has one extra base (a deletion from the query's perspective).
	p := DefaultParams()
	rng := rand.New(rand.NewSource(43))
	n, h0 := 40, 30
	q := randSeq(rng, n)
	tg := make([]byte, 0, n+1)
	tg = append(tg, q[:20]...)
	tg = append(tg, (q[20]+2)&3)
	tg = append(tg, q[20:]...)
	res := ExtendScalar(&p, q, tg, 100, h0, nil, nil)
	want := h0 + n - p.ODel - p.EDel // 40 matches, one 1-base gap
	if res.Score != want {
		t.Fatalf("score = %d, want %d (%+v)", res.Score, want, res)
	}
	if res.TLE != n+1 || res.QLE != n {
		t.Fatalf("qle/tle = %d/%d, want %d/%d", res.QLE, res.TLE, n, n+1)
	}
}

func TestExtendScalarZeroRowAborts(t *testing.T) {
	// A tiny h0 against garbage dies immediately: score stays h0.
	p := DefaultParams()
	rng := rand.New(rand.NewSource(44))
	q := randSeq(rng, 30)
	tg := mutate(rng, q, 30) // heavy corruption
	res := ExtendScalar(&p, q, tg, 100, 1, nil, nil)
	if res.Score < 1 {
		t.Fatalf("score %d below h0", res.Score)
	}
}

func TestExtendScalarEmptyInputs(t *testing.T) {
	p := DefaultParams()
	res := ExtendScalar(&p, nil, []byte{0, 1, 2}, 100, 10, nil, nil)
	if res.Score != 10 || res.QLE != 0 {
		t.Fatalf("empty query: %+v", res)
	}
	res = ExtendScalar(&p, []byte{0, 1, 2}, nil, 100, 10, nil, nil)
	if res.Score != 10 || res.TLE != 0 || res.GScore != -1 {
		t.Fatalf("empty target: %+v", res)
	}
}

func TestExtendScalarMatchesDenseReference(t *testing.T) {
	// Compare against the independent full-matrix implementation in the
	// regime where they are defined to agree: a huge h0 keeps every cell
	// positive (no zero-region shrinking), Zdrop=0 disables the drop
	// heuristic, and tlen <= qlen keeps the effective band (which the
	// scalar engine clamps to about qlen) from ever clipping a row.
	p := DefaultParams()
	p.Zdrop = 0
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 300; trial++ {
		qlen := 2 + rng.Intn(12)
		tlen := 1 + rng.Intn(qlen)
		var q, tg []byte
		if trial%2 == 0 {
			q, tg = randSeq(rng, qlen), randSeq(rng, tlen)
		} else {
			q = randSeq(rng, qlen)
			tg = mutate(rng, q, 1+rng.Intn(3))
			tg = tg[:min(len(tg), tlen)]
			if len(tg) == 0 {
				tg = randSeq(rng, 1)
			}
		}
		h0 := 500 // dominates any penalty sum at these lengths
		got := ExtendScalar(&p, q, tg, 100, h0, nil, nil)
		want := refExtendDense(&p, q, tg, h0)
		if got != want {
			t.Fatalf("trial %d: q=%v t=%v h0=%d:\ngot  %+v\nwant %+v", trial, q, tg, h0, got, want)
		}
	}
}

// TestExtendScalarCellStats checks the cell accounting: every row's band
// counts once in ScalarCells, and the vector counters hold exactly the rows
// extendJob16 ran, in steps of row16Lanes cells.
func TestExtendScalarCellStats(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(46))
	q := randSeq(rng, 100)
	tg := mutate(rng, q, 5)
	var st CellStats
	ExtendScalar(&p, q, tg, 100, 30, nil, &st)
	if st.ScalarCells == 0 || st.ScalarRows == 0 {
		t.Fatalf("stats not collected: %+v", st)
	}
	if st.ScalarCells > int64(len(q))*int64(len(tg)) {
		t.Fatalf("more cells than the full matrix: %+v", st)
	}
	if !row16Fits(&p, q, 30) {
		t.Fatal("row16Fits rejects the job")
	}
	// The same job on the Go row, counting each row's band in steps.
	lanes := 0
	if haveJob16 {
		lanes = row16Lanes
	}
	var want CellStats
	extendGo(&p, q, tg, clampBand(&p, len(q), 100), 30, &ScalarBuf{}, &want, lanes)
	if st != want {
		t.Fatalf("job kernel ran: %v; got %+v, want %+v", haveJob16, st, want)
	}

	// A seed score past int16 keeps the job on the int32 row.
	const bigH0 = 40000
	if row16Fits(&p, q, bigH0) {
		t.Fatal("row16Fits admits h0 40000")
	}
	st = CellStats{}
	ExtendScalar(&p, q, tg, 100, bigH0, nil, &st)
	if st.ScalarCells == 0 || st.VectorCells != 0 || st.VectorSteps != 0 {
		t.Fatalf("int32 job: %+v", st)
	}
}

// TestHotKernelsDoNotAllocate requires bsw's hot regions to allocate
// nothing on warm buffers: ExtendScalar (extendJob16 where it runs), the Go
// row driver extendGo, and GlobalBuf.Global on a gapped pair with each
// fill. The root TestHotRegions sees the compiler's heap escapes; this also
// sees what -m does not, such as append growing a slice from zero capacity.
func TestHotKernelsDoNotAllocate(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(71))
	q := randSeq(rng, 150)
	tg := mutate(rng, q, 5)
	gapped := append(tg[:70:70], tg[73:]...) // three target bases deleted
	var sb ScalarBuf
	var gb GlobalBuf
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"ExtendScalar", func() { benchSink = ExtendScalar(&p, q, tg, 100, 30, &sb, nil) }},
		{"extendGo", func() { benchSink = extendGo(&p, q, tg, clampBand(&p, len(q), 100), 30, &sb, nil, 0) }},
	} {
		c.run() // warm the buffers
		if n := testing.AllocsPerRun(20, c.run); n != 0 {
			t.Errorf("%s: %v allocations per call on warm buffers, want 0", c.name, n)
		}
	}
	eachGlobalFill(t, func(t *testing.T) {
		run := func() { gb.Global(&p, q, gapped, 10, int(minusInf)) }
		run()
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Errorf("GlobalBuf.Global: %v allocations per call on warm buffers, want 0", n)
		}
		if _, cig := gb.Global(&p, q, gapped, 10, int(minusInf)); !strings.Contains(cig.String(), "I") {
			t.Fatalf("the pair aligns without a gap: %s", cig)
		}
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// fuzzParams decodes fuzzed bytes into scoring parameters: match 1-5,
// mismatch 1-8, asymmetric gap open 0-12 and extend 1-4, z-drop 0-200 and
// end bonus 0-10.
func fuzzParams(match, mis, oDel, eDel, oIns, eIns, zdrop, bonus uint8) Params {
	return Params{
		Mat:  FillScoreMatrix(1+int(match)%5, 1+int(mis)%8),
		ODel: int(oDel) % 13, EDel: 1 + int(eDel)%4,
		OIns: int(oIns) % 13, EIns: 1 + int(eIns)%4,
		Zdrop: int(zdrop) % 201, EndBonus: int(bonus) % 11,
	}
}

// fuzzSeq maps fuzzed bytes to base codes 0-4, N included.
func fuzzSeq(raw []byte) []byte {
	s := make([]byte, len(raw))
	for i, b := range raw {
		s[i] = b % 5
	}
	return s
}

// FuzzExtendScalar requires ExtendScalar to match the frozen pre-row-kernel
// oracle exactly: the same ExtResult and the same cell and row counts.
func FuzzExtendScalar(f *testing.F) {
	rng := rand.New(rand.NewSource(47))
	q := randSeq(rng, 60)
	f.Add(q, mutate(rng, q, 4), uint8(0), uint8(3), uint8(6), uint8(0), uint8(6), uint8(0), uint8(100), uint8(30), uint8(100), uint8(5))
	f.Add([]byte{0, 1, 4, 3, 2}, []byte{0, 4, 4, 3}, uint8(4), uint8(7), uint8(0), uint8(3), uint8(12), uint8(1), uint8(0), uint8(0), uint8(0), uint8(10))
	f.Add(q, randSeq(rng, 80), uint8(1), uint8(0), uint8(2), uint8(1), uint8(9), uint8(2), uint8(5), uint8(200), uint8(7), uint8(0))
	// qlen > 64 with tight bands: rows of several 32-column chunks whose
	// band start moves every row, so the row kernel's carries run.
	long := randSeq(rng, 250)
	f.Add(long, mutate(rng, long, 12), uint8(0), uint8(3), uint8(6), uint8(0), uint8(6), uint8(0), uint8(12), uint8(60), uint8(100), uint8(5))
	f.Add(long[:150], append(mutate(rng, long[:70], 3), long[75:150]...), uint8(0), uint8(3), uint8(6), uint8(0), uint8(6), uint8(0), uint8(40), uint8(30), uint8(0), uint8(5))
	f.Add(long[:97], mutate(rng, long[:97], 2), uint8(2), uint8(5), uint8(1), uint8(2), uint8(3), uint8(0), uint8(3), uint8(150), uint8(60), uint8(10))
	f.Fuzz(func(t *testing.T, rawQ, rawT []byte, match, mis, oDel, eDel, oIns, eIns, w, h0, zdrop, bonus uint8) {
		if len(rawQ) > 300 || len(rawT) > 300 {
			return
		}
		p := fuzzParams(match, mis, oDel, eDel, oIns, eIns, zdrop, bonus)
		query, target := fuzzSeq(rawQ), fuzzSeq(rawT)
		bw, bh0 := int(w)%151, int(h0)%201
		var got, want CellStats
		g := ExtendScalar(&p, query, target, bw, bh0, nil, &got)
		r := refExtendScalar(&p, query, target, bw, bh0, nil, &want)
		got.VectorCells, got.VectorSteps = 0, 0 // the oracle predates the vector row; TestExtendScalarCellStats checks them
		if g != r || got != want {
			t.Fatalf("w=%d h0=%d %+v:\ngot  %+v %+v\nwant %+v %+v", bw, bh0, p, g, got, r, want)
		}
	})
}
