package fmindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// bruteSMEMs computes all SMEMs of q overlapping position x0 by definition:
// substrings of q containing x0 that occur in text, are maximal (no left or
// right extension still occurs), and are not contained in another maximal
// match of q.
func bruteSMEMs(text, q []byte, x0 int) [][2]int {
	type span struct{ s, e int }
	var mems []span
	for s := 0; s <= x0; s++ {
		for e := x0 + 1; e <= len(q); e++ {
			if countOcc(text, q[s:e]) == 0 {
				continue
			}
			leftMax := s == 0 || countOcc(text, q[s-1:e]) == 0
			rightMax := e == len(q) || countOcc(text, q[s:e+1]) == 0
			if leftMax && rightMax {
				mems = append(mems, span{s, e})
			}
		}
	}
	var out [][2]int
	for _, m := range mems {
		contained := false
		for _, o := range mems {
			if o != m && o.s <= m.s && m.e <= o.e {
				contained = true
				break
			}
		}
		if !contained {
			out = append(out, [2]int{m.s, m.e})
		}
	}
	return out
}

func TestSMEM1MatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		text := doubledText(randText(rng, 30+rng.Intn(150)))
		for _, flavor := range []Flavor{Baseline, Optimized} {
			x, _, err := Build(text, flavor)
			if err != nil {
				t.Fatal(err)
			}
			var buf SMEMBuf
			for rep := 0; rep < 10; rep++ {
				q := randText(rng, 4+rng.Intn(20))
				x0 := rng.Intn(len(q))
				got, _ := x.SMEM1(q, x0, 1, &buf, nil)
				want := bruteSMEMs(text, q, x0)
				if len(got) != len(want) {
					t.Fatalf("trial %d %v: q=%v x0=%d: got %v, want %v", trial, flavor, q, x0, got, want)
				}
				for i, m := range got {
					if int(m.QBeg) != want[i][0] || int(m.QEnd) != want[i][1] {
						t.Fatalf("trial %d %v: q=%v x0=%d: smem %d = %v, want %v", trial, flavor, q, x0, i, m, want[i])
					}
					if m.S != countOcc(text, q[m.QBeg:m.QEnd]) {
						t.Fatalf("trial %d %v: smem %v: S=%d, occurrences=%d",
							trial, flavor, m, m.S, countOcc(text, q[m.QBeg:m.QEnd]))
					}
				}
			}
		}
	}
}

func TestSMEM1ReturnValueAdvances(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	text := doubledText(randText(rng, 200))
	x, _, _ := Build(text, Optimized)
	var buf SMEMBuf
	q := randText(rng, 60)
	for x0 := 0; x0 < len(q); {
		_, next := x.SMEM1(q, x0, 1, &buf, nil)
		if next <= x0 {
			t.Fatalf("SMEM1 did not advance: x0=%d next=%d", x0, next)
		}
		x0 = next
	}
}

func TestSMEM1AmbiguousBase(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	text := doubledText(randText(rng, 100))
	x, _, _ := Build(text, Baseline)
	var buf SMEMBuf
	q := randText(rng, 20)
	q[5] = 4 // N
	// Starting on the N: no mems, advance by one.
	mems, next := x.SMEM1(q, 5, 1, &buf, nil)
	if len(mems) != 0 || next != 6 {
		t.Fatalf("SMEM1 on N: mems=%v next=%d", mems, next)
	}
	// Starting before the N: no SMEM may cross position 5.
	mems, _ = x.SMEM1(q, 2, 1, &buf, nil)
	for _, m := range mems {
		if m.QBeg <= 5 && 5 < m.QEnd {
			t.Fatalf("SMEM %v crosses the ambiguous base", m)
		}
	}
}

func TestSMEM1MinIntv(t *testing.T) {
	// With minIntv above the occurrence count of any long match, SMEM1 only
	// keeps shorter, more frequent matches — the re-seeding mechanism.
	rng := rand.New(rand.NewSource(34))
	fwd := randText(rng, 400)
	text := doubledText(fwd)
	x, _, _ := Build(text, Optimized)
	var buf SMEMBuf
	// A query equal to a unique region of the text.
	q := append([]byte(nil), fwd[100:140]...)
	full, _ := x.SMEM1(q, 20, 1, &buf, nil)
	if len(full) != 1 || full[0].Len() != 40 {
		t.Fatalf("expected one full-length SMEM, got %v", full)
	}
	occ := full[0].S
	again, _ := x.SMEM1(q, 20, occ+1, &buf, nil)
	for _, m := range again {
		if m.Len() == 40 && m.S == occ {
			t.Fatalf("raised minIntv should suppress the unique full-length match: %v", again)
		}
	}
}

func TestCollectIntervalsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	fwd := randText(rng, 2000)
	text := doubledText(fwd)
	opt := DefaultSeedOpts()
	for _, flavor := range []Flavor{Baseline, Optimized} {
		x, _, _ := Build(text, flavor)
		var buf SMEMBuf
		for rep := 0; rep < 20; rep++ {
			// Reads sampled from the reference with a few mismatches.
			pos := rng.Intn(len(fwd) - 120)
			q := append([]byte(nil), fwd[pos:pos+100]...)
			for m := 0; m < 3; m++ {
				q[rng.Intn(len(q))] = byte(rng.Intn(4))
			}
			seeds := x.CollectIntervals(q, opt, &buf, nil)
			if len(seeds) == 0 {
				t.Fatalf("no seeds for a reference-derived read")
			}
			for i, s := range seeds {
				if s.S < 1 {
					t.Fatalf("seed %v has empty interval", s)
				}
				if s.QBeg < 0 || int(s.QEnd) > len(q) || s.QBeg >= s.QEnd {
					t.Fatalf("seed %v out of query range", s)
				}
				if s.Len() < opt.MinSeedLen {
					t.Fatalf("seed %v shorter than MinSeedLen", s)
				}
				if s.S != countOcc(text, q[s.QBeg:s.QEnd]) {
					t.Fatalf("seed %v: S=%d but %d occurrences", s, s.S, countOcc(text, q[s.QBeg:s.QEnd]))
				}
				if i > 0 && (seeds[i-1].QBeg > s.QBeg ||
					(seeds[i-1].QBeg == s.QBeg && seeds[i-1].QEnd > s.QEnd)) {
					t.Fatalf("seeds not sorted: %v before %v", seeds[i-1], s)
				}
			}
		}
	}
}

func TestCollectIntervalsFlavorsIdentical(t *testing.T) {
	// The paper's core requirement: the optimized index must produce output
	// identical to the baseline.
	rng := rand.New(rand.NewSource(36))
	fwd := randText(rng, 3000)
	text := doubledText(fwd)
	xb, _, _ := Build(text, Baseline)
	xo, _, _ := Build(text, Optimized)
	opt := DefaultSeedOpts()
	var bb, bo SMEMBuf
	for rep := 0; rep < 50; rep++ {
		pos := rng.Intn(len(fwd) - 160)
		q := append([]byte(nil), fwd[pos:pos+151]...)
		for m := 0; m < 1+rng.Intn(6); m++ {
			q[rng.Intn(len(q))] = byte(rng.Intn(4))
		}
		sb := xb.CollectIntervals(q, opt, &bb, nil)
		so := xo.CollectIntervals(q, opt, &bo, nil)
		if !reflect.DeepEqual(sb, so) {
			t.Fatalf("rep %d: flavors disagree:\nbaseline  %v\noptimized %v", rep, sb, so)
		}
	}
}

// TestCollectIntervalsDoesNotAllocate pins the seeding path at zero
// allocations once the caller's scratch has grown.
func TestCollectIntervalsDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	fwd := randText(rng, 3000)
	x, _, _ := Build(doubledText(fwd), Optimized)
	q := append([]byte(nil), fwd[500:651]...)
	q[40], q[90] = (q[40]+1)&3, (q[90]+2)&3
	var buf SMEMBuf
	out := x.CollectIntervals(q, DefaultSeedOpts(), &buf, nil)
	if allocs := testing.AllocsPerRun(20, func() {
		out = x.CollectIntervals(q, DefaultSeedOpts(), &buf, out)
	}); allocs != 0 {
		t.Fatalf("CollectIntervals allocated %.1f times per read", allocs)
	}
}

func TestSeedStrategy1(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	fwd := randText(rng, 1000)
	text := doubledText(fwd)
	x, _, _ := Build(text, Optimized)
	q := append([]byte(nil), fwd[200:260]...)
	m, next, found := x.SeedStrategy1(q, 0, 19, 20)
	if !found {
		t.Fatal("expected a seed from a reference-derived read")
	}
	if m.Len() < 20 {
		t.Fatalf("seed length %d, want > minLen", m.Len())
	}
	if m.S >= 20 {
		t.Fatalf("seed occurrence %d, want < maxIntv", m.S)
	}
	if next != int(m.QEnd) {
		t.Fatalf("next=%d, want %d", next, m.QEnd)
	}
	if m.S != countOcc(text, q[m.QBeg:m.QEnd]) {
		t.Fatalf("S=%d, occurrences=%d", m.S, countOcc(text, q[m.QBeg:m.QEnd]))
	}
	// Ambiguous start.
	q[0] = 4
	if _, next, found := x.SeedStrategy1(q, 0, 19, 20); found || next != 1 {
		t.Fatal("N start should not seed")
	}
}

// seedingReads returns reads that exercise every branch of the seeding
// engine: reference-derived reads with mismatches, reads from a repeated
// segment (pass 2 re-seeds inside their SMEMs), runs of N at the start, in
// the middle and at the end, an all-N read, an empty read, and reads
// shorter than MinSeedLen.
func seedingReads(rng *rand.Rand, fwd []byte, repeat int) [][]byte {
	var reads [][]byte
	for r := 0; r < 24; r++ {
		pos := rng.Intn(len(fwd) - 160)
		if r%4 == 0 {
			pos = repeat + rng.Intn(40)
		}
		q := append([]byte(nil), fwd[pos:pos+60+rng.Intn(100)]...)
		for m := 0; m < rng.Intn(5); m++ {
			q[rng.Intn(len(q))] = byte(rng.Intn(4))
		}
		reads = append(reads, q)
	}
	withN := func(q []byte, from, to int) []byte {
		q = append([]byte(nil), q...)
		for i := from; i < to; i++ {
			q[i] = 4
		}
		return q
	}
	base := fwd[100:201]
	reads = append(reads,
		withN(base, 0, 7), withN(base, 40, 52), withN(base, 90, 101), withN(base, 50, 51),
		withN(base, 0, 101), // all N
		nil,                 // empty
		append([]byte(nil), fwd[300:301]...),
		append([]byte(nil), fwd[400:410]...),
		append([]byte(nil), fwd[500:518]...), // MinSeedLen-1
		withN(fwd[600:630], 15, 16))
	return reads
}

// TestCollectIntervalsBatchMatchesPerRead checks the round-robin engine
// against per-read CollectIntervals for K in {1, 2, 3, 8}, both flavors,
// the whole read set and batches smaller than K, and outs reused across
// calls with the reads in another order.
func TestCollectIntervalsBatchMatchesPerRead(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	fwd := randText(rng, 4000)
	copy(fwd[2000:2300], fwd[1000:1300]) // a repeat, so pass 2 has work
	copy(fwd[3000:3300], fwd[1000:1300])
	reads := seedingReads(rng, fwd, 1000)
	rev := make([][]byte, len(reads))
	for i, q := range reads {
		rev[len(reads)-1-i] = q
	}
	opt := DefaultSeedOpts()
	for _, flavor := range []Flavor{Baseline, Optimized} {
		x, _, err := Build(doubledText(fwd), flavor)
		if err != nil {
			t.Fatal(err)
		}
		want := func(qs [][]byte) [][]BiInterval {
			var buf SMEMBuf
			out := make([][]BiInterval, len(qs))
			for i, q := range qs {
				out[i] = x.CollectIntervals(q, opt, &buf, nil)
			}
			return out
		}
		pass2 := 0
		for _, q := range reads {
			var buf SMEMBuf
			x.beginRead(&buf, q, opt, nil)
			for more := true; more; more = x.seedStep(&buf) {
				if buf.pass == 2 && buf.walk.kind != walkIdle {
					pass2++
				}
			}
		}
		if pass2 == 0 {
			t.Fatalf("%v: no read re-seeds in pass 2", flavor)
		}
		check := func(label string, got, want [][]BiInterval) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%v %s: %d outputs, want %d", flavor, label, len(got), len(want))
			}
			for i := range want {
				if len(got[i]) != len(want[i]) || (len(want[i]) > 0 && !reflect.DeepEqual(got[i], want[i])) {
					t.Fatalf("%v %s: read %d:\ngot  %v\nwant %v", flavor, label, i, got[i], want[i])
				}
			}
		}
		for _, k := range []int{1, 2, 3, 8} {
			var buf SeedBatchBuf
			var outs [][]BiInterval
			for _, qs := range [][][]byte{reads, rev, reads[:k-1], rev[:1], reads} {
				outs = x.collectBatch(qs, opt, &buf, k, outs)
				check(fmt.Sprintf("K=%d, %d reads", k, len(qs)), outs, want(qs))
			}
		}
		var buf SeedBatchBuf
		check("CollectIntervalsBatch", x.CollectIntervalsBatch(reads, opt, &buf, nil), want(reads))
	}
}

// TestCollectIntervalsBatchDoesNotAllocate pins the batch path at zero
// allocations once its lanes and outputs have grown.
func TestCollectIntervalsBatchDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	fwd := randText(rng, 3000)
	x, _, _ := Build(doubledText(fwd), Optimized)
	reads := seedingReads(rng, fwd, 1000)
	var buf SeedBatchBuf
	outs := x.CollectIntervalsBatch(reads, DefaultSeedOpts(), &buf, nil)
	if allocs := testing.AllocsPerRun(20, func() {
		outs = x.CollectIntervalsBatch(reads, DefaultSeedOpts(), &buf, outs)
	}); allocs != 0 {
		t.Fatalf("CollectIntervalsBatch allocated %.1f times per batch", allocs)
	}
}
