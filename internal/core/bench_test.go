package core

import (
	"math/rand"
	"testing"

	"repro/internal/seq"
)

func benchAligner(b *testing.B, mode Mode) (*Aligner, [][]byte, []seq.Read) {
	b.Helper()
	ref := testRef(b, 1<<19, 910)
	a, err := NewAligner(ref, mode, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(911))
	var codes [][]byte
	var reads []seq.Read
	for i := 0; i < 256; i++ {
		rd, _ := sampleRead(rng, ref, 101, rng.Intn(4), i%2 == 0)
		reads = append(reads, rd)
		codes = append(codes, seq.Encode(rd.Seq))
	}
	return a, codes, reads
}

// BenchmarkAlignReadBaseline measures one read through the baseline
// configuration (η=128 + compressed SA + scalar extension).
func BenchmarkAlignReadBaseline(b *testing.B) {
	a, codes, _ := benchAligner(b, ModeBaseline)
	ws := &Workspace{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.AlignRead(codes[i%len(codes)], ws)
	}
}

// BenchmarkAlignReadOptimized measures one read through the optimized
// configuration (bit-plane occurrence table + flat SA).
func BenchmarkAlignReadOptimized(b *testing.B) {
	a, codes, _ := benchAligner(b, ModeOptimized)
	ws := &Workspace{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.AlignRead(codes[i%len(codes)], ws)
	}
}

// BenchmarkSAMFormat measures record rendering alone.
func BenchmarkSAMFormat(b *testing.B) {
	a, codes, reads := benchAligner(b, ModeOptimized)
	ws := &Workspace{}
	regs := make([][]Region, len(codes))
	for i := range codes {
		regs[i] = a.AlignRead(codes[i], ws)
	}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(codes)
		buf = a.AppendSAM(buf[:0], &reads[k], codes[k], regs[k])
	}
}
