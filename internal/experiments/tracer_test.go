package experiments

import (
	"math/rand"
	"testing"

	"repro/internal/fmindex"
	"repro/internal/memsim"
	"repro/internal/sal"
	"repro/internal/seq"
)

func randText(rng *rand.Rand, n int) []byte {
	t := make([]byte, n)
	for i := range t {
		t[i] = byte(rng.Intn(4))
	}
	return t
}

// doubledText returns the forward strand plus its reverse complement, the
// text BWA-MEM indexes.
func doubledText(fwd []byte) []byte {
	r, err := seq.NewReference([]string{"c"}, [][]byte{seq.Decode(fwd)})
	if err != nil {
		panic(err)
	}
	return r.Doubled()
}

// buildIndex indexes a random n-base reference and returns the index and its
// full suffix array.
func buildIndex(t testing.TB, n int, seed int64, flavor fmindex.Flavor) (*fmindex.Index, []int32) {
	t.Helper()
	idx, full, err := fmindex.Build(doubledText(randText(rand.New(rand.NewSource(seed)), n)), flavor)
	if err != nil {
		t.Fatal(err)
	}
	return idx, full
}

// install makes tr the probe of x with x's own table geometry.
func install(tr *Tracer, x *fmindex.Index) {
	eta, basesPerWord := x.Geometry()
	tr.Install(x, eta, basesPerWord)
}

func TestTracerWithoutModel(t *testing.T) {
	tr := &Tracer{}
	tr.Load(100, 8)  // no cache model: must not panic
	tr.Store(200, 8) // likewise
	tr.hint(0, 64)
	if tr.Prefetches != 1 {
		t.Fatalf("prefetch count: %+v", tr)
	}
}

func TestTracerDrivesModel(t *testing.T) {
	tr := &Tracer{Mem: memsim.New(memsim.Scaled())}
	tr.Load(OccBase, 64)
	tr.Store(SABase, 4)
	if tr.Mem.Stats.Loads != 1 || tr.Mem.Stats.Stores != 1 {
		t.Fatalf("model stats: %+v", tr.Mem.Stats)
	}
}

func TestPrefetchGating(t *testing.T) {
	// Prefetch hints count but only warm the model when enabled.
	tr := &Tracer{Mem: memsim.New(memsim.Scaled()), EnablePrefetch: false}
	tr.hint(OccBase, 64)
	if tr.Prefetches != 1 || tr.Mem.Stats.Prefetches != 0 {
		t.Fatalf("disabled prefetch should not reach the model: %+v", tr.Mem.Stats)
	}
	tr.EnablePrefetch = true
	tr.hint(OccBase, 64)
	if tr.Mem.Stats.Prefetches != 1 {
		t.Fatalf("enabled prefetch should reach the model: %+v", tr.Mem.Stats)
	}
	// The prefetched line now hits.
	tr.Load(OccBase, 8)
	if tr.Mem.Stats.HitsAt[0] != 1 {
		t.Fatalf("load after prefetch should hit L1: %+v", tr.Mem.Stats)
	}
}

func TestResetCountersKeepsCacheWarm(t *testing.T) {
	tr := &Tracer{Mem: memsim.New(memsim.Scaled())}
	tr.Load(OccBase, 8)
	tr.OccCalls = 5
	tr.ResetCounters()
	if tr.OccCalls != 0 || tr.Mem.Stats.Loads != 0 {
		t.Fatalf("counters not cleared: %+v %+v", tr, tr.Mem.Stats)
	}
	tr.Load(OccBase, 8)
	if tr.Mem.Stats.HitsAt[0] != 1 {
		t.Fatal("cache contents should survive ResetCounters")
	}
}

func TestAddressRegionsDistinct(t *testing.T) {
	regions := []uint64{OccBase, SABase, RefBase, BWTBase}
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			if regions[i] == regions[j] {
				t.Fatal("address regions must be distinct")
			}
		}
	}
}

func TestTracerCountsAndCache(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	text := doubledText(randText(rng, 2000))
	x, _, _ := fmindex.Build(text, fmindex.Optimized)
	tr := &Tracer{Mem: memsim.New(memsim.Scaled()), EnablePrefetch: true}
	install(tr, x)
	q := randText(rng, 50)
	var buf fmindex.SMEMBuf
	mems, _ := x.SMEM1(q, 0, 1, &buf, nil)
	x.SetProbe(nil)
	if tr.OccCalls == 0 || tr.OccWords < tr.OccCalls || tr.Extends == 0 {
		t.Fatalf("tracer counters not advancing: %+v", tr)
	}
	if tr.Mem.Stats.Loads == 0 {
		t.Fatal("cache model saw no loads")
	}
	if tr.Prefetches == 0 {
		t.Fatal("optimized flavor should issue prefetch hints")
	}
	_ = mems
}

func TestOcc4PairSharedBucketTracesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	text := doubledText(randText(rng, 800))
	x, _, _ := fmindex.Build(text, fmindex.Optimized)
	for _, g := range []struct{ eta, basesPerWord int }{{128, 64}, {32, 8}} {
		tr := &Tracer{}
		tr.Install(x, g.eta, g.basesPerWord)
		// Rank bounds whose shifted positions share one bucket (η=32 or
		// 128): pick two rows in the same bucket well away from the primary
		// row, and extend the interval between them.
		base := ((x.B.Primary + 64) / 32) * 32
		var ok [4]fmindex.BiInterval
		x.Extend(fmindex.BiInterval{K: base + 2, S: 19}, true, &ok) // bounds base+1, base+20
		if tr.OccCalls != 1 || tr.Extends != 1 {
			t.Fatalf("eta %d: shared-bucket pair should cost one visit, got %d", g.eta, tr.OccCalls)
		}
		tr.ResetCounters()
		x.Extend(fmindex.BiInterval{K: base + 2, S: 199}, true, &ok) // bounds base+1, base+200
		if tr.OccCalls != 2 {
			t.Fatalf("eta %d: split pair should cost two visits, got %d", g.eta, tr.OccCalls)
		}
	}
	x.SetProbe(nil)
}

func TestBaselineNeverPrefetches(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	text := doubledText(randText(rng, 1000))
	x, _, _ := fmindex.Build(text, fmindex.Baseline)
	tr := &Tracer{Mem: memsim.New(memsim.Scaled()), EnablePrefetch: true}
	install(tr, x)
	var buf fmindex.SMEMBuf
	q := randText(rng, 40)
	x.SMEM1(q, 0, 1, &buf, nil)
	if tr.Prefetches != 0 {
		t.Fatalf("baseline issued %d prefetches", tr.Prefetches)
	}
}

func TestLookupTracing(t *testing.T) {
	idx, full := buildIndex(t, 500, 5, fmindex.Baseline)
	tr := &Tracer{Mem: memsim.New(memsim.Scaled())}
	c, _ := sal.New(full, 128, idx)
	install(tr, idx)
	rows := []int{1, 17, 333, 777}
	for _, r := range rows {
		tr.Lookup(c, r%len(full))
	}
	if tr.SALookups != int64(len(rows)) {
		t.Fatalf("SALookups = %d", tr.SALookups)
	}
	if tr.LFSteps == 0 {
		t.Fatal("compressed lookups should take LF steps")
	}
	if tr.OccCalls == 0 {
		t.Fatal("LF steps should hit the occurrence table")
	}
	lfLoads := tr.Mem.Stats.Loads
	if lfLoads == 0 {
		t.Fatal("cache model saw no loads")
	}

	// Flat lookups: exactly one load each, no LF steps.
	tr2 := &Tracer{Mem: memsim.New(memsim.Scaled())}
	f, _ := sal.New(full, 1, nil)
	for _, r := range rows {
		tr2.Lookup(f, r%len(full))
	}
	if tr2.LFSteps != 0 || tr2.Mem.Stats.Loads != int64(len(rows)) {
		t.Fatalf("flat tracing: %+v", tr2)
	}
}

// TestInstructionGapEmerges verifies the core claim of Table 5: the work per
// lookup (LF steps, each costing an occurrence computation) of the
// compressed design is orders of magnitude above the flat design's single
// read, and grows with the compression factor.
func TestInstructionGapEmerges(t *testing.T) {
	idx, full := buildIndex(t, 4000, 6, fmindex.Baseline)
	rng := rand.New(rand.NewSource(7))
	rows := make([]int, 2000)
	for i := range rows {
		rows[i] = rng.Intn(len(full))
	}
	work := func(intv int) float64 {
		tr := &Tracer{}
		c, _ := sal.New(full, intv, idx)
		install(tr, idx)
		defer idx.SetProbe(nil)
		for _, r := range rows {
			tr.Lookup(c, r)
		}
		return float64(tr.LFSteps) / float64(len(rows))
	}
	w32, w128 := work(32), work(128)
	// LF jumps to essentially random rows, so the walk length is geometric
	// with mean ~intv.
	if w32 < 10 || w32 > 64 {
		t.Fatalf("avg LF steps at intv 32 = %f, want ~32", w32)
	}
	if w128 < 48 || w128 > 256 {
		t.Fatalf("avg LF steps at intv 128 = %f, want ~128", w128)
	}
	if w128 < 2.5*w32 {
		t.Fatalf("walk length should scale with compression: %f vs %f", w32, w128)
	}
}
