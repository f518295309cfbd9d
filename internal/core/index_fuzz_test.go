//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package core

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadIndex feeds arbitrary bytes to both index readers: ReadIndex (the
// heap path) and buildFromMapping (the mmap path, over the same bytes as if
// they were a mapped file). Neither may panic. Whatever the heap path
// accepts must pass validate, must also open on the mmap path, and must
// survive WriteIndexV2 → ReadIndex with the same contigs, pac, B0, suffix
// array and occbp bytes. The seeds are a tiny valid file and one damaged
// copy of it per TestIndexV2CorruptionMatrix case.
func FuzzReadIndex(f *testing.F) {
	_, data := buildV2Bytes(f, 200, 407)
	f.Add(data)
	for _, tc := range indexCorruptions() {
		f.Add(tc.mutate(append([]byte(nil), data...)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, mapErr := buildFromMapping(data, int64(len(data)))
		pi, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := pi.validate(); err != nil {
			t.Fatalf("heap load accepted an index that fails validate: %v", err)
		}
		if mapErr != nil {
			t.Fatalf("heap load accepted what the mmap path refuses: %v", mapErr)
		}
		var buf bytes.Buffer
		if err := pi.WriteIndexV2(&buf); err != nil {
			t.Fatalf("rewriting an accepted index: %v", err)
		}
		pi2, err := ReadIndex(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("rereading a rewritten index: %v", err)
		}
		switch {
		case !reflect.DeepEqual(pi.Ref.Contigs, pi2.Ref.Contigs):
			t.Fatal("contigs changed across a rewrite")
		case !bytes.Equal(pi.Ref.Pac, pi2.Ref.Pac):
			t.Fatal("pac changed across a rewrite")
		case !bytes.Equal(pi.BWT.B0, pi2.BWT.B0):
			t.Fatal("BWT column changed across a rewrite")
		case !bytes.Equal(int32sRaw(pi.FullSA), int32sRaw(pi2.FullSA)):
			t.Fatal("suffix array changed across a rewrite")
		case !bytes.Equal(pi.OccBP.Raw(), pi2.OccBP.Raw()):
			t.Fatal("occbp table changed across a rewrite")
		}
	})
}
