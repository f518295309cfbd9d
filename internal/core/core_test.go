package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fmindex"
	"repro/internal/seq"
)

// testRef builds a random single-contig reference of n bases.
func testRef(t testing.TB, n int, seed int64) *seq.Reference {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := make([]byte, n)
	for i := range s {
		s[i] = "ACGT"[rng.Intn(4)]
	}
	ref, err := seq.NewReference([]string{"chr1"}, [][]byte{s})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// sampleRead extracts a read from the reference, optionally reverse
// complemented and mutated, returning the ASCII read and its true position.
func sampleRead(rng *rand.Rand, ref *seq.Reference, length, subs int, rev bool) (seq.Read, int) {
	pos := rng.Intn(ref.Lpac() - length)
	codes := append([]byte(nil), ref.Pac[pos:pos+length]...)
	for i := 0; i < subs; i++ {
		codes[rng.Intn(length)] = byte(rng.Intn(4))
	}
	if rev {
		seq.RevCompInPlace(codes)
	}
	return seq.Read{Name: fmt.Sprintf("r%d", pos), Seq: seq.Decode(codes)}, pos
}

func randFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func newTestAligner(t testing.TB, ref *seq.Reference, mode Mode) *Aligner {
	t.Helper()
	a, err := NewAligner(ref, mode, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAlignReadFindsTruePosition(t *testing.T) {
	ref := testRef(t, 20000, 81)
	rng := rand.New(rand.NewSource(82))
	for _, mode := range []Mode{ModeBaseline, ModeOptimized} {
		a := newTestAligner(t, ref, mode)
		ws := &Workspace{}
		for trial := 0; trial < 30; trial++ {
			rev := trial%2 == 1
			rd, pos := sampleRead(rng, ref, 100, 2, rev)
			regs := a.AlignRead(seq.Encode(rd.Seq), ws)
			if len(regs) == 0 {
				t.Fatalf("%v trial %d: no regions", mode, trial)
			}
			best := regs[0]
			aln := a.regToAln(new(render), seq.Encode(rd.Seq), &best)
			if aln.Rid != 0 {
				t.Fatalf("%v trial %d: rid %d", mode, trial, aln.Rid)
			}
			if aln.IsRev != rev {
				t.Fatalf("%v trial %d: strand %v, want %v", mode, trial, aln.IsRev, rev)
			}
			if d := aln.Pos - pos; d < -5 || d > 5 {
				t.Fatalf("%v trial %d: pos %d, want ~%d", mode, trial, aln.Pos, pos)
			}
		}
	}
}

// TestModesProduceIdenticalSAM is the reproduction of the paper's central
// requirement (§6.1.3): the optimized implementation must emit output
// identical to the baseline.
func TestModesProduceIdenticalSAM(t *testing.T) {
	ref := testRef(t, 30000, 83)
	rng := rand.New(rand.NewSource(84))
	ab := newTestAligner(t, ref, ModeBaseline)
	ao := newTestAligner(t, ref, ModeOptimized)
	wsB, wsO := &Workspace{}, &Workspace{}
	for trial := 0; trial < 60; trial++ {
		length := []int{76, 101, 151}[trial%3]
		rd, _ := sampleRead(rng, ref, length, rng.Intn(6), trial%2 == 0)
		codes := seq.Encode(rd.Seq)
		rb := ab.AlignRead(codes, wsB)
		ro := ao.AlignRead(codes, wsO)
		if !reflect.DeepEqual(rb, ro) {
			t.Fatalf("trial %d: regions differ:\nbaseline  %+v\noptimized %+v", trial, rb, ro)
		}
		samB := string(ab.AppendSAM(nil, &rd, codes, rb))
		samO := string(ao.AppendSAM(nil, &rd, codes, ro))
		if samB != samO {
			t.Fatalf("trial %d: SAM differs:\n%s\n%s", trial, samB, samO)
		}
	}
}

// sampleBatch draws n 101 bp reads with up to four substitutions each,
// alternating strands.
func sampleBatch(rng *rand.Rand, ref *seq.Reference, n int) (rds []seq.Read, codes [][]byte) {
	for i := 0; i < n; i++ {
		rd, _ := sampleRead(rng, ref, 101, rng.Intn(5), i%2 == 0)
		rds = append(rds, rd)
		codes = append(codes, seq.Encode(rd.Seq))
	}
	return rds, codes
}

// TestBatchMatchesSequential: a read's regions do not depend on the reads
// aligned before it on the same workspace (scratch reuse leaks no state).
func TestBatchMatchesSequential(t *testing.T) {
	ref := testRef(t, 30000, 85)
	rng := rand.New(rand.NewSource(86))
	for _, mode := range []Mode{ModeBaseline, ModeOptimized} {
		a := newTestAligner(t, ref, mode)
		rds, reads := sampleBatch(rng, ref, 40)
		ws := &Workspace{}
		batch := a.AlignBatch(reads, ws)
		for i, q := range reads {
			seqr := a.AlignRead(q, ws)
			if !reflect.DeepEqual(batch[i], seqr) {
				t.Fatalf("%v read %d (%s): batch/sequential regions differ:\nbatch %+v\nseq   %+v",
					mode, i, rds[i].Name, batch[i], seqr)
			}
		}
	}
}

// extendLog is a probe that records the rank bounds of every extension
// and counts prefetch hints.
type extendLog struct {
	extends    [][2]int
	prefetches int
}

func (p *extendLog) Extend(k, l int) { p.extends = append(p.extends, [2]int{k, l}) }
func (p *extendLog) Occ(int)         {}
func (p *extendLog) Prefetch(int)    { p.prefetches++ }

// TestBaselineBatchKeepsOriginalOrder: a Baseline aligner's AlignBatch
// seeds read by read, as original BWA-MEM does — exactly the extensions of
// per-read CollectIntervals, in read order, with no prefetch hint — while
// an Optimized aligner makes the same extensions interleaved across reads.
func TestBaselineBatchKeepsOriginalOrder(t *testing.T) {
	ref := testRef(t, 30000, 87)
	_, reads := sampleBatch(rand.New(rand.NewSource(88)), ref, 3)
	for _, mode := range []Mode{ModeBaseline, ModeOptimized} {
		a := newTestAligner(t, ref, mode)
		want, got := &extendLog{}, &extendLog{}
		a.Idx.SetProbe(want)
		var buf fmindex.SMEMBuf
		for _, q := range reads {
			a.Idx.CollectIntervals(q, a.Opts.Seed, &buf, nil)
		}
		a.Idx.SetProbe(got)
		a.AlignBatch(reads, &Workspace{})
		a.Idx.SetProbe(nil)
		same := reflect.DeepEqual(got.extends, want.extends)
		switch {
		case mode == ModeBaseline && !same:
			t.Fatalf("baseline AlignBatch made %d extensions out of per-read order (per-read CollectIntervals made %d)",
				len(got.extends), len(want.extends))
		case mode == ModeBaseline && got.prefetches != 0:
			t.Fatalf("baseline AlignBatch issued %d prefetch hints", got.prefetches)
		case mode == ModeOptimized && (same || len(got.extends) != len(want.extends)):
			t.Fatalf("optimized AlignBatch: %d extensions, per read %d, identical order %v; want the same count interleaved",
				len(got.extends), len(want.extends), same)
		}
	}
}

// TestCollectBSWJobsGolden pins the kernel-benchmark job list (count and
// hash recorded at PR 11): the jobs feed Tables 6-8 and bwabench's
// replayable dumps, so the list must not move with the engine that computes
// the left scores the right jobs start from.
func TestCollectBSWJobsGolden(t *testing.T) {
	ref := testRef(t, 30000, 85)
	a := newTestAligner(t, ref, ModeOptimized)
	_, reads := sampleBatch(rand.New(rand.NewSource(86)), ref, 40)
	jobs := a.CollectBSWJobs(reads, nil)
	h := fnv.New64a()
	for _, j := range jobs {
		fmt.Fprintf(h, "%x|%x|%d|%d\n", j.Query, j.Target, j.W, j.H0)
	}
	if got := h.Sum64(); len(jobs) != 92 || got != 0xc60d6247eff22698 {
		t.Fatalf("CollectBSWJobs: %d jobs, hash %#x; want 92 jobs, hash 0xc60d6247eff22698", len(jobs), got)
	}
}

func TestGarbageReadUnmapped(t *testing.T) {
	ref := testRef(t, 20000, 87)
	a := newTestAligner(t, ref, ModeOptimized)
	rng := rand.New(rand.NewSource(88))
	junk := make([]byte, 80)
	for i := range junk {
		junk[i] = "ACGT"[rng.Intn(4)]
	}
	rd := seq.Read{Name: "junk", Seq: junk}
	codes := seq.Encode(rd.Seq)
	regs := a.AlignRead(codes, nil)
	sam := string(a.AppendSAM(nil, &rd, codes, regs))
	// A random 80-mer against a 20 kb reference may align by chance, but
	// the record must be well-formed either way.
	fields := strings.Split(strings.TrimSuffix(sam, "\n"), "\t")
	if len(fields) < 11 {
		t.Fatalf("malformed SAM: %q", sam)
	}
}

func TestSAMRecordShape(t *testing.T) {
	ref := testRef(t, 20000, 89)
	a := newTestAligner(t, ref, ModeOptimized)
	rng := rand.New(rand.NewSource(90))
	rd, pos := sampleRead(rng, ref, 100, 1, false)
	rd.Qual = []byte(strings.Repeat("F", 100))
	codes := seq.Encode(rd.Seq)
	regs := a.AlignRead(codes, nil)
	sam := string(a.AppendSAM(nil, &rd, codes, regs))
	lines := strings.Split(strings.TrimSuffix(sam, "\n"), "\n")
	f := strings.Split(lines[0], "\t")
	if f[0] != rd.Name || f[2] != "chr1" {
		t.Fatalf("name/rname: %q", lines[0])
	}
	if f[5] == "*" || !strings.Contains(f[5], "M") {
		t.Fatalf("cigar: %q", f[5])
	}
	if f[9] != string(rd.Seq) || f[10] != string(rd.Qual) {
		t.Fatalf("seq/qual roundtrip: %q", lines[0])
	}
	var gotPos int
	fmt.Sscanf(f[3], "%d", &gotPos)
	if d := gotPos - 1 - pos; d < -5 || d > 5 {
		t.Fatalf("pos %d, want ~%d", gotPos-1, pos)
	}
	if !strings.Contains(lines[0], "NM:i:") || !strings.Contains(lines[0], "AS:i:") {
		t.Fatalf("tags missing: %q", lines[0])
	}
}

func TestReverseStrandSAM(t *testing.T) {
	ref := testRef(t, 20000, 91)
	a := newTestAligner(t, ref, ModeOptimized)
	rng := rand.New(rand.NewSource(92))
	rd, _ := sampleRead(rng, ref, 100, 0, true)
	codes := seq.Encode(rd.Seq)
	regs := a.AlignRead(codes, nil)
	sam := string(a.AppendSAM(nil, &rd, codes, regs))
	f := strings.Split(strings.TrimSuffix(sam, "\n"), "\t")
	var flag int
	fmt.Sscanf(f[1], "%d", &flag)
	if flag&FlagReverse == 0 {
		t.Fatalf("reverse flag missing: %q", sam)
	}
	// SEQ column holds the reverse complement (i.e., the forward reference
	// strand) of the read.
	want := seq.Decode(seq.RevComp(seq.Encode(rd.Seq)))
	if f[9] != string(want) {
		t.Fatalf("reverse SEQ not complemented")
	}
}

func TestPerfectReadHasZeroNM(t *testing.T) {
	ref := testRef(t, 20000, 93)
	a := newTestAligner(t, ref, ModeBaseline)
	rng := rand.New(rand.NewSource(94))
	rd, _ := sampleRead(rng, ref, 120, 0, false)
	codes := seq.Encode(rd.Seq)
	regs := a.AlignRead(codes, nil)
	if len(regs) == 0 {
		t.Fatal("no regions")
	}
	aln := a.regToAln(new(render), codes, &regs[0])
	if aln.NM != 0 {
		t.Fatalf("NM = %d for a perfect read", aln.NM)
	}
	if aln.Cigar.String() != "120M" {
		t.Fatalf("cigar = %s", aln.Cigar)
	}
	if aln.Mapq == 0 {
		t.Fatal("unique perfect read should have positive mapq")
	}
}

func TestIndelReadCigar(t *testing.T) {
	ref := testRef(t, 20000, 95)
	a := newTestAligner(t, ref, ModeOptimized)
	pos := 5000
	codes := append([]byte(nil), ref.Pac[pos:pos+120]...)
	// Delete 3 bases from the middle of the read.
	withDel := append(append([]byte(nil), codes[:60]...), codes[63:]...)
	rd := seq.Read{Name: "del3", Seq: seq.Decode(withDel)}
	q := seq.Encode(rd.Seq)
	regs := a.AlignRead(q, nil)
	if len(regs) == 0 {
		t.Fatal("no regions")
	}
	aln := a.regToAln(new(render), q, &regs[0])
	if !strings.Contains(aln.Cigar.String(), "D") {
		t.Fatalf("expected a deletion in cigar, got %s", aln.Cigar)
	}
	ql, _ := aln.Cigar.Lens()
	if ql != len(rd.Seq) {
		t.Fatalf("cigar consumes %d query bases, want %d", ql, len(rd.Seq))
	}
}

func TestMapqRange(t *testing.T) {
	ref := testRef(t, 30000, 97)
	a := newTestAligner(t, ref, ModeOptimized)
	rng := rand.New(rand.NewSource(98))
	ws := &Workspace{}
	for trial := 0; trial < 40; trial++ {
		rd, _ := sampleRead(rng, ref, 101, rng.Intn(8), trial%2 == 0)
		regs := a.AlignRead(seq.Encode(rd.Seq), ws)
		for i := range regs {
			if regs[i].Secondary < 0 {
				q := a.mapQ(&regs[i])
				if q < 0 || q > 60 {
					t.Fatalf("mapq %d out of range", q)
				}
			}
		}
	}
}

func TestRepeatReadLowMapq(t *testing.T) {
	// A read from an exact repeat must get mapq 0 (two equal-best hits).
	rng := rand.New(rand.NewSource(99))
	unit := make([]byte, 3000)
	for i := range unit {
		unit[i] = "ACGT"[rng.Intn(4)]
	}
	pad1 := make([]byte, 4000)
	pad2 := make([]byte, 4000)
	for i := range pad1 {
		pad1[i] = "ACGT"[rng.Intn(4)]
		pad2[i] = "ACGT"[rng.Intn(4)]
	}
	genome := append(append(append(append([]byte{}, pad1...), unit...), pad2...), unit...)
	ref, err := seq.NewReference([]string{"c"}, [][]byte{genome})
	if err != nil {
		t.Fatal(err)
	}
	a := newTestAligner(t, ref, ModeOptimized)
	rd := seq.Read{Name: "rep", Seq: seq.Decode(append([]byte(nil), ref.Pac[4500:4600]...))}
	codes := seq.Encode(rd.Seq)
	regs := a.AlignRead(codes, nil)
	if len(regs) < 2 {
		t.Fatalf("expected two hits in a repeat, got %d", len(regs))
	}
	aln := a.regToAln(new(render), codes, &regs[0])
	if aln.Mapq > 3 {
		t.Fatalf("repeat read mapq = %d, want ~0", aln.Mapq)
	}
	if regs[1].Secondary != 0 {
		t.Fatalf("second hit should be secondary to the first: %+v", regs[1])
	}
}

func TestSAMHeader(t *testing.T) {
	ref := testRef(t, 5000, 100)
	a := newTestAligner(t, ref, ModeBaseline)
	h := a.SAMHeader()
	if !strings.Contains(h, "@SQ\tSN:chr1\tLN:5000") || !strings.Contains(h, "@PG") {
		t.Fatalf("header: %q", h)
	}
}

func TestMultiContigRid(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	mk := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = "ACGT"[rng.Intn(4)]
		}
		return s
	}
	ref, err := seq.NewReference([]string{"cA", "cB"}, [][]byte{mk(8000), mk(8000)})
	if err != nil {
		t.Fatal(err)
	}
	a := newTestAligner(t, ref, ModeOptimized)
	// Read from the second contig.
	rd := seq.Read{Name: "b", Seq: seq.Decode(append([]byte(nil), ref.Pac[8000+3000:8000+3100]...))}
	codes := seq.Encode(rd.Seq)
	regs := a.AlignRead(codes, nil)
	if len(regs) == 0 {
		t.Fatal("no regions")
	}
	aln := a.regToAln(new(render), codes, &regs[0])
	if aln.Rid != 1 {
		t.Fatalf("rid = %d, want 1", aln.Rid)
	}
	if d := aln.Pos - 3000; d < -5 || d > 5 {
		t.Fatalf("pos = %d, want ~3000", aln.Pos)
	}
	sam := string(a.AppendSAM(nil, &rd, codes, regs))
	if !strings.Contains(sam, "\tcB\t") {
		t.Fatalf("SAM rname: %q", sam)
	}
}

func TestUnmappedRecord(t *testing.T) {
	ref := testRef(t, 20000, 102)
	a := newTestAligner(t, ref, ModeBaseline)
	rd := seq.Read{Name: "nn", Seq: []byte(strings.Repeat("N", 80))}
	codes := seq.Encode(rd.Seq)
	regs := a.AlignRead(codes, nil)
	sam := string(a.AppendSAM(nil, &rd, codes, regs))
	f := strings.Split(strings.TrimSuffix(sam, "\n"), "\t")
	var flag int
	fmt.Sscanf(f[1], "%d", &flag)
	if flag&FlagUnmapped == 0 || f[2] != "*" {
		t.Fatalf("all-N read should be unmapped: %q", sam)
	}
}
