package experiments

import (
	"repro/internal/fmindex"
	"repro/internal/memsim"
	"repro/internal/sal"
)

// Synthetic address-space bases for the simulated data structures. Each
// structure lives in its own region so streams interleave realistically in
// the cache model.
const (
	OccBase uint64 = 1 << 33
	SABase  uint64 = 2 << 33
	RefBase uint64 = 3 << 33
	BWTBase uint64 = 4 << 33
)

// occLineBytes is the size of one occurrence bucket of every table layout:
// one cache line.
const occLineBytes = 64

// Tracer is the cost model behind Tables 4 and 5: operation counters (the
// "# instructions"-style columns are derived from these) and, when Mem is
// non-nil, a cache-hierarchy simulator replaying the kernels' memory-access
// streams (the LLC-miss and average-latency columns). Install makes it the
// fmindex.Probe of one index, and Lookup accounts SA lookups. It is not
// safe for concurrent use; trace single-threaded kernel runs only.
type Tracer struct {
	Mem            *memsim.Hierarchy
	EnablePrefetch bool // honor software-prefetch hints (paper Alg. 4)

	// SMEM kernel counters.
	OccCalls   int64 // occurrence-table computations (one per bucket visit)
	OccWords   int64 // machine words scanned inside buckets
	OccBases   int64 // BWT symbol slots covered by those words
	Extends    int64 // backward/forward extension operations
	Prefetches int64 // software-prefetch hints issued

	// SAL kernel counters.
	SALookups int64 // suffix-array lookups requested
	LFSteps   int64 // LF-mapping walk steps (compressed SA only)

	eta, basesPerWord int // the modeled bucket geometry (Install)
}

// Install makes t the probe of x, costing the positions x reports as a
// table of eta positions per bucket and basesPerWord per in-bucket word:
// x.Geometry() for x's own table, or a layout modeled over x's rank
// positions (Table 4's η=32 configs). x.SetProbe(nil) removes it.
func (t *Tracer) Install(x *fmindex.Index, eta, basesPerWord int) {
	t.eta, t.basesPerWord = eta, basesPerWord
	x.SetProbe(t)
}

// Extend accounts for one extension whose stored rank bounds are k <= l.
// When both fall into the same occurrence bucket — increasingly likely as
// matches lengthen and intervals shrink (§4.2) — the bucket is visited once
// (BWA's bwt_2occ4); otherwise each non-negative bound costs a visit.
func (t *Tracer) Extend(k, l int) {
	t.Extends++
	if k >= 0 && k/t.eta == l/t.eta {
		t.Occ(l)
		return
	}
	if k >= 0 {
		t.Occ(k)
	}
	if l >= 0 {
		t.Occ(l)
	}
}

// Occ records one bucket visit covering stored position k.
func (t *Tracer) Occ(k int) {
	t.OccCalls++
	words := k%t.eta/t.basesPerWord + 1
	t.OccWords += int64(words)
	t.OccBases += int64(words * t.basesPerWord)
	t.Load(t.occLine(k), occLineBytes)
}

// Prefetch records a software-prefetch hint for stored position k's
// bucket. Only the configurations with EnablePrefetch set issue hints.
func (t *Tracer) Prefetch(k int) {
	if t.EnablePrefetch {
		t.hint(t.occLine(k), occLineBytes)
	}
}

// occLine returns the simulated address of stored position k's bucket.
func (t *Tracer) occLine(k int) uint64 {
	return OccBase + uint64(k/t.eta)*occLineBytes
}

// Lookup accounts for one lookup through sa: its LF steps and the read of
// the sample it ends at. The steps' rank queries reach t only when t is
// installed on sa's index.
func (t *Tracer) Lookup(sa *sal.SA, row int) {
	t.SALookups++
	sample, steps := sa.Walk(row)
	t.LFSteps += int64(steps)
	t.Load(SABase+uint64(sample)*4, 4)
}

// Load records a demand read against the cache model (if any).
func (t *Tracer) Load(addr uint64, size int) {
	if t.Mem != nil {
		t.Mem.Load(addr, size)
	}
}

// Store records a demand write against the cache model (if any).
func (t *Tracer) Store(addr uint64, size int) {
	if t.Mem != nil {
		t.Mem.Store(addr, size)
	}
}

// hint records a software-prefetch hint. Hints are counted even when the
// cache model is absent, and only warm the model when EnablePrefetch is set.
func (t *Tracer) hint(addr uint64, size int) {
	t.Prefetches++
	if t.EnablePrefetch && t.Mem != nil {
		t.Mem.PrefetchAddr(addr, size)
	}
}

// ResetCounters zeroes the counters but leaves cache contents warm and the
// tracer installed.
func (t *Tracer) ResetCounters() {
	*t = Tracer{Mem: t.Mem, EnablePrefetch: t.EnablePrefetch, eta: t.eta, basesPerWord: t.basesPerWord}
	if t.Mem != nil {
		t.Mem.ResetStats()
	}
}
