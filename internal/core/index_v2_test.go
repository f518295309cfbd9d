package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/seq"
)

func buildV2Bytes(t testing.TB, refBP int, seed int64) (*Prebuilt, []byte) {
	t.Helper()
	ref := testRef(t, refBP, seed)
	pi, err := BuildPrebuilt(ref)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pi.WriteIndexV2(&buf); err != nil {
		t.Fatal(err)
	}
	return pi, buf.Bytes()
}

// samEqual asserts two aligners render byte-identical SAM for the same
// sampled reads.
func samEqual(t *testing.T, want, got *Aligner, label string, seed int64) {
	t.Helper()
	rng := randFor(seed)
	for trial := 0; trial < 5; trial++ {
		rd, _ := sampleRead(rng, want.Ref, 100, 2, trial%2 == 1)
		codes := seq.Encode(rd.Seq)
		s1 := string(want.AppendSAM(nil, &rd, codes, want.AlignRead(codes, nil)))
		s2 := string(got.AppendSAM(nil, &rd, codes, got.AlignRead(codes, nil)))
		if s1 != s2 {
			t.Fatalf("%s: SAM differs:\n%s%s", label, s1, s2)
		}
	}
}

func TestIndexV2RoundTrip(t *testing.T) {
	pi, data := buildV2Bytes(t, 12000, 401)
	pi2, err := ReadIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pi.Ref.Pac, pi2.Ref.Pac) || !reflect.DeepEqual(pi.Ref.Contigs, pi2.Ref.Contigs) ||
		pi.Ref.NumAmb != pi2.Ref.NumAmb {
		t.Fatal("reference mismatch after v2 round trip")
	}
	if pi.BWT.Primary != pi2.BWT.Primary || !bytes.Equal(pi.BWT.B0, pi2.BWT.B0) ||
		pi.BWT.C != pi2.BWT.C || pi.BWT.Counts != pi2.BWT.Counts {
		t.Fatal("BWT mismatch after v2 round trip")
	}
	if !reflect.DeepEqual(pi.FullSA, pi2.FullSA) {
		t.Fatal("suffix array mismatch after v2 round trip")
	}
	if pi2.OccBP == nil {
		t.Fatal("v2 load did not surface the persisted occurrence table")
	}
	// An unseekable stream must load identically (no file-size hint).
	pi3, err := ReadIndex(nonSeekReader{bytes.NewReader(data)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pi3.FullSA, pi.FullSA) {
		t.Fatal("unseekable v2 load disagrees")
	}
	for _, mode := range []Mode{ModeBaseline, ModeOptimized} {
		direct := newTestAligner(t, pi.Ref, mode)
		loaded, err := NewAlignerFrom(pi2, mode, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		samEqual(t, direct, loaded, "v2 "+mode.String(), 402)
	}
}

func TestIndexMmapMatchesHeapLoads(t *testing.T) {
	pi, data := buildV2Bytes(t, 15000, 403)
	dir := t.TempDir()
	v2Path := filepath.Join(dir, "ref.bwago")
	if err := os.WriteFile(v2Path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	mi, err := OpenIndexMmap(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	defer mi.Close()
	if mi.MappedBytes() != int64(len(data)) {
		t.Fatalf("MappedBytes = %d, file is %d bytes", mi.MappedBytes(), len(data))
	}
	if !bytes.Equal(mi.Ref.Pac, pi.Ref.Pac) || !bytes.Equal(mi.BWT.B0, pi.BWT.B0) ||
		!reflect.DeepEqual(mi.FullSA, pi.FullSA) || !reflect.DeepEqual(mi.Ref.Contigs, pi.Ref.Contigs) {
		t.Fatal("mapped sections disagree with the built index")
	}
	if mi.BWT.Counts != pi.BWT.Counts || mi.BWT.C != pi.BWT.C || mi.BWT.Primary != pi.BWT.Primary {
		t.Fatal("mapped BWT metadata disagrees with the built index")
	}

	heapPi, err := ReadIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeBaseline, ModeOptimized} {
		heap, err := NewAlignerFrom(heapPi, mode, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := NewAlignerFrom(&mi.Prebuilt, mode, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		samEqual(t, heap, mapped, "mmap vs heap "+mode.String(), 404)
	}

	if err := mi.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mi.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// patchHeaderCRC recomputes the header checksum after a test mutates header
// bytes, so the mutation is reached instead of masked by the CRC gate.
func patchHeaderCRC(b []byte) {
	binary.LittleEndian.PutUint64(b[v2HeaderCRCOff:], crc64.Checksum(b[:v2HeaderCRCOff], crcTable))
}

// dropLastOccBPLine cuts the last 64-byte line off the final (occbp)
// section and fixes the file size, section length and both checksums, so
// only the table-length check can reject the result.
func dropLastOccBPLine(b []byte) []byte {
	p := b[v2SectionTab+24*secOccBP:]
	off, length := binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:])-64
	b = b[:off+length]
	binary.LittleEndian.PutUint64(p[8:], length)
	binary.LittleEndian.PutUint64(p[16:], crc64.Checksum(b[off:], crcTable))
	binary.LittleEndian.PutUint64(b[16:], off+length)
	patchHeaderCRC(b)
	return b
}

// indexCorruption is one deliberately damaged index file: mutate turns a
// valid file into it, and wantErr (when non-empty) is part of the error
// every reader must answer with.
type indexCorruption struct {
	name    string
	mutate  func(b []byte) []byte
	wantErr string
}

// indexCorruptions lists the damage TestIndexV2CorruptionMatrix checks;
// FuzzReadIndex starts from the same inputs.
func indexCorruptions() []indexCorruption {
	return []indexCorruption{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0x40; return b }, "not a bwamem-go index"},
		{"future version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 9)
			return b
		}, "unsupported index version 9"},
		{"retired version 1", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 1)
			return b
		}, "unsupported index version 1, rebuild with `bwamem index`"},
		{"retired version 2", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 2)
			return b
		}, "unsupported index version 2, rebuild with `bwamem index`"},
		{"retired version 3", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 3)
			return b
		}, "unsupported index version 3, rebuild with `bwamem index`"},
		{"occbp section one line short", dropLastOccBPLine, "occbp section is"},
		{"occbp bit flip", func(b []byte) []byte { b[len(b)-5] ^= 1; return b }, "occbp section checksum mismatch"},
		{"header bit flip", func(b []byte) []byte { b[24] ^= 1; return b }, "header checksum"},
		{"primary row zero", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32:], 0)
			patchHeaderCRC(b)
			return b
		}, "primary row"},
		{"counts disagree", func(b []byte) []byte {
			v := binary.LittleEndian.Uint64(b[48:])
			binary.LittleEndian.PutUint64(b[48:], v+1)
			binary.LittleEndian.PutUint64(b[56:], binary.LittleEndian.Uint64(b[56:])-1)
			patchHeaderCRC(b)
			return b
		}, "disagree"},
		{"oversized section length", func(b []byte) []byte {
			// Inflate the pac section's length claim past the file.
			p := b[v2SectionTab+24*secPac:]
			binary.LittleEndian.PutUint64(p[8:], 1<<40)
			patchHeaderCRC(b)
			return b
		}, "outside the"},
		{"pac bit flip", func(b []byte) []byte { b[2*v2PageSize+5] ^= 1; return b }, "section checksum mismatch"},
		{"truncated header", func(b []byte) []byte { return b[:100] }, ""},
		{"truncated mid-section", func(b []byte) []byte { return b[:len(b)/2] }, ""},
		{"truncated tail", func(b []byte) []byte { return b[:len(b)-1] }, ""},
	}
}

func TestIndexV2CorruptionMatrix(t *testing.T) {
	_, data := buildV2Bytes(t, 8000, 405)
	if _, err := ReadIndex(bytes.NewReader(data)); err != nil {
		t.Fatalf("pristine v2 index did not load: %v", err)
	}
	for _, tc := range indexCorruptions() {
		b := tc.mutate(append([]byte(nil), data...))
		_, err := ReadIndex(bytes.NewReader(b))
		if err == nil {
			t.Fatalf("%s: corrupt index loaded without error", tc.name)
		}
		if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: err = %v, want mention of %q", tc.name, err, tc.wantErr)
		}
		// Unseekable streams must reject the same corruption (possibly with
		// a less specific error).
		_, uerr := ReadIndex(nonSeekReader{bytes.NewReader(b)})
		if uerr == nil {
			t.Fatalf("%s: corrupt index loaded from an unseekable stream", tc.name)
		}
		// A version this build does not read is a rebuild hint, never
		// "corrupt", whichever way the bytes arrive.
		if strings.Contains(tc.wantErr, "unsupported") {
			if uerr.Error() != err.Error() || strings.Contains(err.Error(), "corrupt") {
				t.Fatalf("%s: seekable %q, unseekable %q; want the same non-corrupt answer", tc.name, err, uerr)
			}
		}
	}
}

func TestOpenIndexMmapRejectsUnusable(t *testing.T) {
	dir := t.TempDir()
	_, data := buildV2Bytes(t, 4000, 406)

	for _, ver := range []uint32{1, 2, 3} { // retired formats
		old := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(old[8:], ver)
		oldPath := filepath.Join(dir, fmt.Sprintf("v%d.bwago", ver))
		if err := os.WriteFile(oldPath, old, 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("unsupported index version %d, rebuild with `bwamem index`", ver)
		if _, err := OpenIndexMmap(oldPath); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("mmap of a version-%d index: err = %v", ver, err)
		}
	}

	shortPath := filepath.Join(dir, "short.bwago")
	if err := os.WriteFile(shortPath, dropLastOccBPLine(append([]byte(nil), data...)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIndexMmap(shortPath); err == nil ||
		!strings.Contains(err.Error(), "occbp section is") {
		t.Fatalf("mmap with a short occbp section: err = %v", err)
	}

	garbage := filepath.Join(dir, "garbage.bwago")
	if err := os.WriteFile(garbage, []byte("definitely not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIndexMmap(garbage); err == nil {
		t.Fatal("mmap of garbage should not succeed")
	}

	trunc := filepath.Join(dir, "trunc.bwago")
	if err := os.WriteFile(trunc, data[:len(data)-512], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIndexMmap(trunc); err == nil {
		t.Fatal("mmap of a truncated index should not succeed")
	}

	flipped := append([]byte(nil), data...)
	flipped[v2PageSize+3] ^= 1 // meta section byte
	badMeta := filepath.Join(dir, "badmeta.bwago")
	if err := os.WriteFile(badMeta, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIndexMmap(badMeta); err == nil ||
		!strings.Contains(err.Error(), "meta section checksum") {
		t.Fatalf("mmap with corrupt meta: err = %v", err)
	}
}
