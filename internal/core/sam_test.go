package core

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/seq"
)

func TestMDTagPerfectRead(t *testing.T) {
	ref := testRef(t, 20000, 401)
	a := newTestAligner(t, ref, ModeOptimized)
	rng := rand.New(rand.NewSource(402))
	rd, _ := sampleRead(rng, ref, 80, 0, false)
	codes := seq.Encode(rd.Seq)
	regs := a.AlignRead(codes, nil)
	aln := a.regToAln(new(render), codes, &regs[0])
	if string(aln.MD) != "80" {
		t.Fatalf("MD = %q, want \"80\"", aln.MD)
	}
}

func TestMDTagMismatch(t *testing.T) {
	ref := testRef(t, 20000, 403)
	a := newTestAligner(t, ref, ModeOptimized)
	pos := 7000
	codes := append([]byte(nil), ref.Pac[pos:pos+80]...)
	want := seq.Base(codes[40])
	codes[40] = (codes[40] + 1) & 3 // plant one mismatch
	regs := a.AlignRead(codes, nil)
	aln := a.regToAln(new(render), codes, &regs[0])
	if string(aln.MD) != "40"+string(want)+"39" {
		t.Fatalf("MD = %q, want 40%c39", aln.MD, want)
	}
	if aln.NM != 1 {
		t.Fatalf("NM = %d", aln.NM)
	}
}

func TestMDTagDeletion(t *testing.T) {
	ref := testRef(t, 20000, 404)
	a := newTestAligner(t, ref, ModeOptimized)
	pos := 9000
	window := append([]byte(nil), ref.Pac[pos:pos+84]...)
	// Read missing 3 reference bases in the middle.
	read := append(append([]byte(nil), window[:40]...), window[43:]...)
	regs := a.AlignRead(read, nil)
	aln := a.regToAln(new(render), read, &regs[0])
	if !strings.Contains(string(aln.MD), "^") {
		t.Fatalf("MD %q should contain a deletion block", aln.MD)
	}
	delBases := seq.Decode(window[40:43])
	if !strings.Contains(string(aln.MD), "^"+string(delBases)) {
		t.Fatalf("MD %q should name the deleted bases %s", aln.MD, delBases)
	}
}

func TestXATagListsRepeatCopy(t *testing.T) {
	// Reference with a diverged duplicate segment: a read from one copy
	// should carry the other copy in XA on its primary record.
	rng := rand.New(rand.NewSource(405))
	unit := make([]byte, 2000)
	for i := range unit {
		unit[i] = byte(rng.Intn(4))
	}
	copy2 := append([]byte(nil), unit...)
	for i := 0; i < 20; i++ { // diverge the copy slightly
		copy2[rng.Intn(len(copy2))] = byte(rng.Intn(4))
	}
	pad := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = byte(rng.Intn(4))
		}
		return s
	}
	genome := append(append(append(pad(3000), unit...), pad(3000)...), copy2...)
	genome = append(genome, pad(3000)...)
	ref, err := seq.NewReference([]string{"c"}, [][]byte{seq.Decode(genome)})
	if err != nil {
		t.Fatal(err)
	}
	a := newTestAligner(t, ref, ModeOptimized)
	read := append([]byte(nil), ref.Pac[3100:3200]...)
	rd := seq.Read{Name: "xa", Seq: seq.Decode(read)}
	regs := a.AlignRead(read, nil)
	sam := string(a.AppendSAM(nil, &rd, read, regs))
	lines := strings.Split(strings.TrimSuffix(sam, "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("want one primary record, got %d:\n%s", len(lines), sam)
	}
	if !strings.Contains(lines[0], "XA:Z:c,") {
		t.Fatalf("XA tag missing: %s", lines[0])
	}
	// The alternate position must point near the duplicate copy (~8000).
	xa := lines[0][strings.Index(lines[0], "XA:Z:"):]
	var altPos int
	if _, err := sscanXA(xa, &altPos); err != nil {
		t.Fatalf("unparsable XA %q: %v", xa, err)
	}
	if altPos < 7900 || altPos > 8400 {
		t.Fatalf("alt pos %d, want near 8100", altPos)
	}
}

func sscanXA(xa string, pos *int) (int, error) {
	// XA:Z:c,+8101,100M,3;
	i := strings.IndexAny(xa, "+-")
	if i < 0 {
		return 0, strings.NewReader("").UnreadByte()
	}
	n := 0
	for j := i + 1; j < len(xa) && xa[j] >= '0' && xa[j] <= '9'; j++ {
		n = n*10 + int(xa[j]-'0')
	}
	*pos = n
	return 1, nil
}

func TestMDRoundTripAgainstReference(t *testing.T) {
	// Property: walking MD over the read reconstructs the reference bases
	// consumed by the alignment.
	ref := testRef(t, 30000, 406)
	a := newTestAligner(t, ref, ModeOptimized)
	rng := rand.New(rand.NewSource(407))
	for trial := 0; trial < 25; trial++ {
		rd, _ := sampleRead(rng, ref, 100, rng.Intn(4), false)
		codes := seq.Encode(rd.Seq)
		regs := a.AlignRead(codes, nil)
		if len(regs) == 0 || regs[0].Secondary >= 0 {
			continue
		}
		aln := a.regToAln(new(render), codes, &regs[0])
		if aln.Rid < 0 || aln.IsRev {
			continue
		}
		// Sum of MD match runs + mismatch letters + deletion letters must
		// equal the reference span of the CIGAR.
		_, tlen := aln.Cigar.Lens()
		mdRef := 0
		md := aln.MD
		for i := 0; i < len(md); {
			switch {
			case md[i] >= '0' && md[i] <= '9':
				n := 0
				for i < len(md) && md[i] >= '0' && md[i] <= '9' {
					n = n*10 + int(md[i]-'0')
					i++
				}
				mdRef += n
			case md[i] == '^':
				i++
				for i < len(md) && md[i] >= 'A' && md[i] <= 'T' {
					mdRef++
					i++
				}
			default:
				mdRef++
				i++
			}
		}
		// Soft-clipped bases consume no reference.
		if mdRef != tlen {
			t.Fatalf("trial %d: MD %q covers %d ref bases, cigar %s covers %d",
				trial, aln.MD, mdRef, aln.Cigar, tlen)
		}
	}
}

// TestAppendSAMAllocs pins SAM-FORM's allocation diet: with a nil buf, as
// every caller passes it, rendering a 101 bp read or pair allocates only
// the record buffer. Reads carry 0-4 substitutions, so both Global's
// ungapped shortcut and its DP run, and the scratch behind each call comes
// from the Aligner's pool. Records must not depend on which read the
// pooled scratch served before.
func TestAppendSAMAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ref := testRef(t, 60000, 408)
	a := newTestAligner(t, ref, ModeOptimized)
	rng := rand.New(rand.NewSource(409))
	rds, codes := sampleBatch(rng, ref, 100)
	regs := a.AlignBatch(codes, nil)
	recs := make([]string, len(rds))
	for i := len(rds) - 1; i >= 0; i-- {
		recs[i] = string(a.AppendSAM(nil, &rds[i], codes[i], regs[i]))
	}
	for i := range rds {
		var rec []byte
		allocs := testing.AllocsPerRun(20, func() { rec = a.AppendSAM(nil, &rds[i], codes[i], regs[i]) })
		if allocs > 2 {
			t.Errorf("read %d: AppendSAM made %.1f allocations, want <= 2", i, allocs)
		}
		if string(rec) != recs[i] {
			t.Fatalf("read %d renders differently after other reads:\n%s\n%s", i, rec, recs[i])
		}
	}

	regsA, regsB := alignPairs(t, a, ref, 40, 410)
	ps := a.InferPairStats(regsA, regsB)
	for i := 0; i < 50; i++ {
		r1, r2, _ := samplePair(rng, ref, 101, 280+rng.Intn(60), rng.Intn(3))
		q1, q2 := seq.Encode(r1.Seq), seq.Encode(r2.Seq)
		g1, g2 := a.AlignRead(q1, nil), a.AlignRead(q2, nil)
		allocs := testing.AllocsPerRun(20, func() { a.AppendSAMPair(nil, &ps, &r1, &r2, q1, q2, g1, g2) })
		if allocs > 2 {
			t.Errorf("pair %d: AppendSAMPair made %.1f allocations, want <= 2", i, allocs)
		}
	}
}

// TestAppendSAMConcurrent renders the same reads from several goroutines
// at once: each call's pooled scratch must be its own, so every record
// matches the one rendered alone.
func TestAppendSAMConcurrent(t *testing.T) {
	ref := testRef(t, 30000, 411)
	a := newTestAligner(t, ref, ModeOptimized)
	rds, codes := sampleBatch(rand.New(rand.NewSource(412)), ref, 60)
	regs := a.AlignBatch(codes, nil)
	want := make([]string, len(rds))
	for i := range rds {
		want[i] = string(a.AppendSAM(nil, &rds[i], codes[i], regs[i]))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range rds {
				i := (k + 15*g) % len(rds)
				if got := string(a.AppendSAM(nil, &rds[i], codes[i], regs[i])); got != want[i] {
					t.Errorf("goroutine %d, read %d:\n%s\nwant\n%s", g, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
