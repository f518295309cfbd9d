package fmindex

import (
	"math/rand"
	"testing"
)

func benchIndex(b *testing.B, flavor Flavor) (*Index, [][]byte) {
	b.Helper()
	rng := rand.New(rand.NewSource(900))
	text := doubledText(randText(rng, 1<<20))
	x, _, err := Build(text, flavor)
	if err != nil {
		b.Fatal(err)
	}
	reads := make([][]byte, 256)
	for i := range reads {
		pos := rng.Intn(len(text)/2 - 160)
		rd := append([]byte(nil), text[pos:pos+151]...)
		for m := 0; m < 3; m++ {
			rd[rng.Intn(len(rd))] = byte(rng.Intn(4))
		}
		reads[i] = rd
	}
	return x, reads
}

// BenchmarkSMEMBaseline measures the full three-pass seeding on the η=128
// table (the Table 4 "original" configuration, wall-clock view).
func BenchmarkSMEMBaseline(b *testing.B) {
	x, reads := benchIndex(b, Baseline)
	var buf SMEMBuf
	var out []BiInterval
	opts := DefaultSeedOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = x.CollectIntervals(reads[i%len(reads)], opts, &buf, out)
	}
}

// BenchmarkSMEMOptimized measures the same seeding on the bit-plane table
// that ModeOptimized serves.
func BenchmarkSMEMOptimized(b *testing.B) {
	x, reads := benchIndex(b, Optimized)
	var buf SMEMBuf
	var out []BiInterval
	opts := DefaultSeedOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = x.CollectIntervals(reads[i%len(reads)], opts, &buf, out)
	}
}

// BenchmarkIndexBuild measures end-to-end index construction (SA-IS + BWT +
// occurrence table) per megabase.
func BenchmarkIndexBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(901))
	text := doubledText(randText(rng, 1<<19))
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Build(text, Optimized); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSMEMBatch measures CollectIntervalsBatch over the same reads,
// SeedLanes at a time; ns/op is per read, comparable with
// BenchmarkSMEMOptimized.
func BenchmarkSMEMBatch(b *testing.B) {
	x, reads := benchIndex(b, Optimized)
	var buf SeedBatchBuf
	var outs [][]BiInterval
	opts := DefaultSeedOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(reads) {
		outs = x.CollectIntervalsBatch(reads[:min(len(reads), b.N-i)], opts, &buf, outs)
	}
}
