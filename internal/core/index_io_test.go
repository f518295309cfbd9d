package core

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/seq"
)

// nonSeekReader hides the Seeker of the wrapped reader so tests can
// exercise the unknown-input-size paths.
type nonSeekReader struct{ r io.Reader }

func (n nonSeekReader) Read(p []byte) (int, error) { return n.r.Read(p) }

func TestAlignerFromPrebuiltMatchesDirect(t *testing.T) {
	ref := testRef(t, 15000, 202)
	pi, err := BuildPrebuilt(ref)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pi.WriteIndexV2(&buf); err != nil {
		t.Fatal(err)
	}
	pi2, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeBaseline, ModeOptimized} {
		direct := newTestAligner(t, ref, mode)
		loaded, err := NewAlignerFrom(pi2, mode, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rd, _ := sampleRead(randFor(203), ref, 100, 2, false)
		codes := seq.Encode(rd.Seq)
		r1 := direct.AlignRead(codes, nil)
		r2 := loaded.AlignRead(codes, nil)
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("%v: loaded index disagrees with direct build", mode)
		}
		s1 := string(direct.AppendSAM(nil, &rd, codes, r1))
		s2 := string(loaded.AppendSAM(nil, &rd, codes, r2))
		if s1 != s2 {
			t.Fatalf("%v: SAM differs:\n%s%s", mode, s1, s2)
		}
	}
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	if _, err := ReadIndex(bytes.NewReader([]byte("not an index at all"))); err == nil {
		t.Fatal("garbage should not parse")
	}
	if _, err := ReadIndex(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should not parse")
	}
	// Truncated index.
	ref := testRef(t, 2000, 204)
	pi, _ := BuildPrebuilt(ref)
	var buf bytes.Buffer
	pi.WriteIndexV2(&buf)
	if _, err := ReadIndex(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("truncated index should not parse")
	}
	if _, err := ReadIndex(nonSeekReader{bytes.NewReader(buf.Bytes()[:buf.Len()/2])}); err == nil {
		t.Fatal("truncated index should not parse from an unseekable stream either")
	}
}

func TestReadIndexRejectsBadContigs(t *testing.T) {
	ref := testRef(t, 3000, 302)
	pi, err := BuildPrebuilt(ref)
	if err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name    string
		contigs []seq.Contig
	}{
		{"beyond the reference", []seq.Contig{{Name: "chr1", Offset: 0, Len: 5000}}},
		{"offset outside", []seq.Contig{{Name: "chr1", Offset: 9000, Len: 3000}}},
		{"overlapping", []seq.Contig{{Name: "a", Offset: 0, Len: 2000}, {Name: "b", Offset: 1000, Len: 2000}}},
		{"gap", []seq.Contig{{Name: "a", Offset: 0, Len: 1000}, {Name: "b", Offset: 2000, Len: 1000}}},
		{"short coverage", []seq.Contig{{Name: "chr1", Offset: 0, Len: 1000}}},
		{"zero length", []seq.Contig{{Name: "a", Offset: 0, Len: 0}, {Name: "chr1", Offset: 0, Len: 3000}}},
		{"none", nil},
	}
	for _, m := range mutations {
		bad := *pi
		badRef := *pi.Ref
		badRef.Contigs = m.contigs
		bad.Ref = &badRef
		var v2 bytes.Buffer
		if err := writeIndexV2(&v2, &bad); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadIndex(bytes.NewReader(v2.Bytes())); err == nil || !strings.Contains(err.Error(), "corrupt index") {
			t.Fatalf("v2 with contigs %s: err = %v", m.name, err)
		}
	}
}
