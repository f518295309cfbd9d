package seq

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCodeBase(t *testing.T) {
	cases := []struct {
		in   byte
		want byte
	}{
		{'A', CodeA}, {'a', CodeA},
		{'C', CodeC}, {'c', CodeC},
		{'G', CodeG}, {'g', CodeG},
		{'T', CodeT}, {'t', CodeT},
		{'N', CodeN}, {'n', CodeN},
		{'X', CodeN}, {'-', CodeN}, {0, CodeN},
	}
	for _, c := range cases {
		if got := Code(c.in); got != c.want {
			t.Errorf("Code(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	for c := byte(0); c < 4; c++ {
		if Code(Base(c)) != c {
			t.Errorf("Code(Base(%d)) != %d", c, c)
		}
	}
	if Base(CodeN) != 'N' {
		t.Errorf("Base(CodeN) = %q", Base(CodeN))
	}
	if Base(200) != 'N' {
		t.Errorf("Base(200) = %q, want 'N'", Base(200))
	}
}

func TestComp(t *testing.T) {
	pairs := [][2]byte{{CodeA, CodeT}, {CodeC, CodeG}, {CodeG, CodeC}, {CodeT, CodeA}, {CodeN, CodeN}}
	for _, p := range pairs {
		if Comp(p[0]) != p[1] {
			t.Errorf("Comp(%d) = %d, want %d", p[0], Comp(p[0]), p[1])
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := []byte("ACGTacgtNNxACGT")
	codes := Encode(in)
	out := Decode(codes)
	want := []byte("ACGTACGTNNNACGT")
	if !bytes.Equal(out, want) {
		t.Errorf("Decode(Encode(%q)) = %q, want %q", in, out, want)
	}
}

func TestEncodeInto(t *testing.T) {
	buf := make([]byte, 16)
	got := EncodeInto(buf, []byte("ACGT"))
	if !bytes.Equal(got, []byte{0, 1, 2, 3}) {
		t.Errorf("EncodeInto = %v", got)
	}
}

func TestRevCompInvolution(t *testing.T) {
	f := func(s []byte) bool {
		codes := make([]byte, len(s))
		for i, b := range s {
			codes[i] = b % 5
		}
		rc := RevComp(RevComp(codes))
		return bytes.Equal(rc, codes)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRevCompInPlaceMatchesRevComp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40)
		codes := make([]byte, n)
		for i := range codes {
			codes[i] = byte(rng.Intn(5))
		}
		want := RevComp(codes)
		got := append([]byte(nil), codes...)
		RevCompInPlace(got)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: RevCompInPlace=%v RevComp=%v", n, got, want)
		}
	}
}

func TestReferenceDoubled(t *testing.T) {
	r, err := NewReference([]string{"c1", "c2"}, [][]byte{[]byte("ACGT"), []byte("TTA")})
	if err != nil {
		t.Fatal(err)
	}
	if r.Lpac() != 7 {
		t.Fatalf("Lpac = %d, want 7", r.Lpac())
	}
	d := r.Doubled()
	if len(d) != 14 {
		t.Fatalf("len(Doubled) = %d, want 14", len(d))
	}
	// forward: ACGTTTA ; reverse complement: TAAACGT
	want := append(Encode([]byte("ACGTTTA")), Encode([]byte("TAAACGT"))...)
	if !bytes.Equal(d, want) {
		t.Errorf("Doubled = %v, want %v", d, want)
	}
	for i := range d {
		if r.Get(i) != d[i] {
			t.Errorf("Get(%d) = %d, want %d", i, r.Get(i), d[i])
		}
	}
	if !bytes.Equal(r.AppendFetch(nil, 2, 9), d[2:9]) {
		t.Errorf("AppendFetch(2,9) mismatch")
	}
	if r.AppendFetch(nil, 9, 2) != nil {
		t.Errorf("AppendFetch with beg>=end should append nothing")
	}
	if got := r.AppendFetch(nil, -5, 100); !bytes.Equal(got, d) {
		t.Errorf("AppendFetch clamping failed")
	}
}

// TestAppendFetchMatchesGet compares AppendFetch with per-base Get over
// every window of a two-contig reference: forward-only, reverse-only,
// straddling the forward/reverse boundary, and clamped at either end. The
// bytes already in dst must stay as they were.
func TestAppendFetchMatchesGet(t *testing.T) {
	r, err := NewReference([]string{"a", "b"}, [][]byte{[]byte("ACGTTNAGC"), []byte("GGATC")})
	if err != nil {
		t.Fatal(err)
	}
	l2 := r.DoubledLen()
	prefix := []byte{9, 9, 9}
	for beg := -3; beg <= l2+3; beg++ {
		for end := beg - 1; end <= l2+3; end++ {
			want := append([]byte(nil), prefix...)
			for i := max(beg, 0); i < min(end, l2); i++ {
				want = append(want, r.Get(i))
			}
			got := r.AppendFetch(append([]byte(nil), prefix...), beg, end)
			if !bytes.Equal(got, want) {
				t.Fatalf("AppendFetch(%d, %d) = %v, want %v", beg, end, got, want)
			}
		}
	}
}

func TestReferenceErrors(t *testing.T) {
	if _, err := NewReference([]string{"a"}, nil); err == nil {
		t.Error("mismatched names/seqs should error")
	}
	if _, err := NewReference([]string{"a"}, [][]byte{{}}); err == nil {
		t.Error("empty contig should error")
	}
}

func TestPosToContig(t *testing.T) {
	r, _ := NewReference([]string{"c1", "c2", "c3"}, [][]byte{
		bytes.Repeat([]byte("A"), 10),
		bytes.Repeat([]byte("C"), 5),
		bytes.Repeat([]byte("G"), 7),
	})
	cases := []struct {
		pos int
		idx int
		off int
	}{
		{0, 0, 0}, {9, 0, 9}, {10, 1, 0}, {14, 1, 4}, {15, 2, 0}, {21, 2, 6},
	}
	for _, c := range cases {
		idx, off := r.PosToContig(c.pos)
		if idx != c.idx || off != c.off {
			t.Errorf("PosToContig(%d) = (%d,%d), want (%d,%d)", c.pos, idx, off, c.idx, c.off)
		}
	}
	if idx, _ := r.PosToContig(22); idx != -1 {
		t.Errorf("PosToContig(22) = %d, want -1", idx)
	}
	if idx, _ := r.PosToContig(-1); idx != -1 {
		t.Errorf("PosToContig(-1) = %d, want -1", idx)
	}
}

func TestDepackPos(t *testing.T) {
	r, _ := NewReference([]string{"c"}, [][]byte{[]byte("ACGTACGTAC")}) // l=10
	// Forward strand position passes through.
	if fwd, rev := r.DepackPos(3, 4); fwd != 3 || rev {
		t.Errorf("DepackPos(3,4) = (%d,%v)", fwd, rev)
	}
	// A match of length 4 at doubled position 10 (start of revcomp strand)
	// covers revcomp[0..4) which mirrors forward [6,10).
	if fwd, rev := r.DepackPos(10, 4); fwd != 6 || !rev {
		t.Errorf("DepackPos(10,4) = (%d,%v), want (6,true)", fwd, rev)
	}
}

func TestFastaRoundTrip(t *testing.T) {
	in := ">chr1 primary\nACGTACGT\nACGT\n\n>chr2\nTTTT\n"
	recs, err := ReadFasta(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Name != "chr1" || recs[0].Desc != "primary" {
		t.Errorf("rec0 header = %q %q", recs[0].Name, recs[0].Desc)
	}
	if string(recs[0].Seq) != "ACGTACGTACGT" {
		t.Errorf("rec0 seq = %q", recs[0].Seq)
	}
	if string(recs[1].Seq) != "TTTT" {
		t.Errorf("rec1 seq = %q", recs[1].Seq)
	}
	var buf bytes.Buffer
	if err := WriteFasta(&buf, recs, 5); err != nil {
		t.Fatal(err)
	}
	recs2, err := ReadFasta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(recs2[0].Seq) != string(recs[0].Seq) || string(recs2[1].Seq) != string(recs[1].Seq) {
		t.Error("fasta round trip mismatch")
	}
}

func TestFastaErrors(t *testing.T) {
	cases := []string{
		"",          // no records
		"ACGT\n",    // data before header
		">\nACGT\n", // empty header
		">x\n",      // record without sequence
	}
	for _, c := range cases {
		if _, err := ReadFasta(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("ReadFasta(%q) should error", c)
		}
	}
}

func TestFastqRoundTrip(t *testing.T) {
	in := "@r1 extra\nACGT\n+\nIIII\n@r2\nTT\n+r2\nAB\n"
	reads, err := ReadFastq(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 2 {
		t.Fatalf("got %d reads, want 2", len(reads))
	}
	if reads[0].Name != "r1" || string(reads[0].Seq) != "ACGT" || string(reads[0].Qual) != "IIII" {
		t.Errorf("read0 = %+v", reads[0])
	}
	var buf bytes.Buffer
	if err := WriteFastq(&buf, reads); err != nil {
		t.Fatal(err)
	}
	reads2, err := ReadFastq(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if reads2[1].Name != "r2" || string(reads2[1].Qual) != "AB" {
		t.Errorf("round trip read1 = %+v", reads2[1])
	}
}

func TestFastqQualSynthesis(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFastq(&buf, []Read{{Name: "r", Seq: []byte("ACG")}}); err != nil {
		t.Fatal(err)
	}
	reads, err := ReadFastq(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(reads[0].Qual) != "III" {
		t.Errorf("synth qual = %q", reads[0].Qual)
	}
}

func TestFastqErrors(t *testing.T) {
	cases := []string{
		"@r1\nACGT\n+\nIII\n", // qual length mismatch
		"r1\nACGT\n+\nIIII\n", // bad header
		"@r1\nACGT\nIIII\n",   // missing '+' line
		"",                    // empty
	}
	for _, c := range cases {
		if _, err := ReadFastq(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("ReadFastq(%q) should error", c)
		}
	}
}

// TestReadFastqAllocs bounds the allocations ReadFastq makes per record:
// four line buffers from bufio and the name string, plus the amortized
// growth of the result slice and the reader's fixed setup. A new
// per-record allocation in the decode loop (say, a zero-capacity append)
// pushes it past the bound.
func TestReadFastqAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 4096
	rng := rand.New(rand.NewSource(1))
	reads := make([]Read, n)
	for i := range reads {
		sq := make([]byte, 101)
		for j := range sq {
			sq[j] = "ACGT"[rng.Intn(4)]
		}
		reads[i] = Read{Name: fmt.Sprintf("r%d", i), Seq: sq}
	}
	var buf bytes.Buffer
	if err := WriteFastq(&buf, reads); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadFastq(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	})
	perRecord := allocs / n
	t.Logf("%.0f allocations for %d records, %.3f per record", allocs, n, perRecord)
	if perRecord > 5.5 {
		t.Fatalf("%.3f allocations per record, want at most 5.5", perRecord)
	}
}

func TestReferenceFromFasta(t *testing.T) {
	in := ">a\nACGT\n>b\nGGG\n"
	r, err := ReferenceFromFasta(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Contigs) != 2 || r.Lpac() != 7 {
		t.Errorf("ref = %+v", r)
	}
}
