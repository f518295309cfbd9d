package pipeline

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/datasets"
	"repro/internal/seq"
)

func testSetup(t testing.TB, mode core.Mode) (*core.Aligner, []seq.Read) {
	t.Helper()
	ref, err := datasets.Genome(datasets.DefaultGenome("chr1", 60000, 21))
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAligner(ref, mode, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reads, err := datasets.Simulate(ref, datasets.D4.Scaled(0.08)) // 400 reads
	if err != nil {
		t.Fatal(err)
	}
	return a, reads
}

// TestPipelineLayoutsIdenticalOutput: a batch is only a dispatch unit, so
// aligning read by read (batch size 1) and in batches of any size gives
// byte-identical SAM, in both modes.
func TestPipelineLayoutsIdenticalOutput(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeBaseline, core.ModeOptimized} {
		a, reads := testSetup(t, mode)
		perRead := Run(a, reads, Config{Threads: 1, BatchSize: 1})
		for _, batch := range []int{7, 64, 512, len(reads)} {
			got := Run(a, reads, Config{Threads: 1, BatchSize: batch})
			if !bytes.Equal(perRead.SAM, got.SAM) {
				t.Fatalf("%v: per-read and batch size %d produced different SAM", mode, batch)
			}
		}
	}
}

// TestPipelineThreadCountInvariant: SAM is byte-identical for every thread
// count, in both modes and for small and large batches.
func TestPipelineThreadCountInvariant(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeBaseline, core.ModeOptimized} {
		a, reads := testSetup(t, mode)
		for _, batch := range []int{7, 64} {
			ref := Run(a, reads, Config{Threads: 1, BatchSize: batch})
			for _, threads := range []int{2, 3, 4, 7} {
				got := Run(a, reads, Config{Threads: threads, BatchSize: batch})
				if !bytes.Equal(ref.SAM, got.SAM) {
					t.Fatalf("%v: output changed with %d threads at batch size %d", mode, threads, batch)
				}
			}
		}
	}
}

func TestPipelineModesIdenticalSAM(t *testing.T) {
	// The full paper invariant, end to end: baseline BWA-MEM pipeline and
	// the optimized pipeline emit byte-identical SAM.
	ab, reads := testSetup(t, core.ModeBaseline)
	ao, _ := testSetup(t, core.ModeOptimized)
	rb := Run(ab, reads, Config{Threads: 3})
	ro := Run(ao, reads, Config{Threads: 3, BatchSize: 128})
	if !bytes.Equal(rb.SAM, ro.SAM) {
		// Find the first differing line for the report.
		lb := strings.Split(string(rb.SAM), "\n")
		lo := strings.Split(string(ro.SAM), "\n")
		for i := range lb {
			if i >= len(lo) || lb[i] != lo[i] {
				t.Fatalf("SAM differs at line %d:\nbaseline : %s\noptimized: %s", i, lb[i], lo[i])
			}
		}
		t.Fatal("SAM differs in length")
	}
}

func TestPipelineStageClockPopulated(t *testing.T) {
	a, reads := testSetup(t, core.ModeOptimized)
	res := Run(a, reads, Config{Threads: 2})
	if res.Reads != len(reads) {
		t.Fatalf("reads = %d", res.Reads)
	}
	for _, s := range []counters.Stage{counters.StageSMEM, counters.StageSAL,
		counters.StageChain, counters.StageBSW, counters.StageSAMForm} {
		if res.Clock.T[s] == 0 {
			t.Fatalf("stage %v has zero accumulated time", s)
		}
	}
	if res.Clock.Kernels() == 0 || res.Clock.Total() == 0 {
		t.Fatal("clock totals empty")
	}
}

func TestPipelineAccuracy(t *testing.T) {
	// Most simulated reads must map back to their true position: the
	// whole-system smoke test.
	a, reads := testSetup(t, core.ModeOptimized)
	res := Run(a, reads, Config{Threads: 2})
	lines := strings.Split(strings.TrimSuffix(string(res.SAM), "\n"), "\n")
	good, total := 0, 0
	for _, ln := range lines {
		f := strings.Split(ln, "\t")
		if len(f) < 11 {
			t.Fatalf("malformed SAM line: %q", ln)
		}
		var flag, pos int
		sscan(t, f[1], &flag)
		if flag&(core.FlagSecondary|core.FlagSupplementary) != 0 {
			continue
		}
		total++
		if flag&core.FlagUnmapped != 0 {
			continue
		}
		sscan(t, f[3], &pos)
		truth, rev, ok := datasets.TruePos(f[0])
		if !ok {
			t.Fatalf("unparsable name %q", f[0])
		}
		if rev == (flag&core.FlagReverse != 0) && abs(pos-1-truth) <= 12 {
			good++
		}
	}
	if total != len(reads) {
		t.Fatalf("%d primary records for %d reads", total, len(reads))
	}
	if float64(good) < 0.95*float64(total) {
		t.Fatalf("only %d/%d reads mapped to their true locus", good, total)
	}
}

func sscan(t *testing.T, s string, v *int) {
	t.Helper()
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			t.Fatalf("not a number: %q", s)
		}
		n = n*10 + int(s[i]-'0')
	}
	*v = n
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestPipelineEdgeCases(t *testing.T) {
	a, reads := testSetup(t, core.ModeOptimized)
	// Empty input.
	if res := Run(a, nil, Config{Threads: 2}); len(res.SAM) != 0 || res.Reads != 0 {
		t.Fatal("empty input should produce empty output")
	}
	// Single read, more threads than work, degenerate batch size.
	res := Run(a, reads[:1], Config{Threads: 8, BatchSize: 1})
	if res.Reads != 1 || len(res.SAM) == 0 {
		t.Fatalf("single read: %+v", res)
	}
	// Zero-value config defaults sanely.
	res = Run(a, reads[:3], Config{})
	if res.Reads != 3 {
		t.Fatal("zero config")
	}
	// Reads with ambiguous bases must flow through without panicking.
	withN := append([]seq.Read(nil), reads[:4]...)
	withN[0].Seq = []byte(strings.Repeat("N", 101))
	withN[1].Seq = append([]byte(nil), withN[1].Seq...)
	withN[1].Seq[50] = 'N'
	res = Run(a, withN, Config{Threads: 2})
	if res.Reads != 4 {
		t.Fatal("N reads")
	}
}

func BenchmarkPipelineBaseline1T(b *testing.B) {
	a, reads := testSetup(b, core.ModeBaseline)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(a, reads, Config{Threads: 1})
	}
}

func BenchmarkPipelineOptimized1T(b *testing.B) {
	a, reads := testSetup(b, core.ModeOptimized)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(a, reads, Config{Threads: 1})
	}
}

// TestTaskSize pins the task-size rule for runs that leave BatchSize at
// 0: about four tasks per worker, never under 64 reads, never over 512.
func TestTaskSize(t *testing.T) {
	for _, tc := range []struct{ n, threads, want int }{
		{2500, 2, 313},  // se250div: 8 tasks instead of 5
		{10000, 2, 512}, // enough reads: the default caps
		{20000, 2, 512}, // paired phase 1 counts both ends
		{100, 2, 64},    // small run: the floor holds
		{0, 2, 64},      // no reads, no tasks
		{1000, 4, 64},   // 1000/16 = 63 rounds up, then the floor
		{1100, 4, 69},   // ceil(1100/16)
		{5000, 0, 512},  // threads <= 0 counts as one worker
		{300, 1, 75},    // one worker still gets four tasks
	} {
		if got := taskSize(tc.n, tc.threads); got != tc.want {
			t.Errorf("taskSize(%d, %d) = %d, want %d", tc.n, tc.threads, got, tc.want)
		}
	}
}

// TestExplicitBatchSizeIsExact checks that a BatchSize the caller sets is
// the task size as given, not shrunk by the derived rule: the server and
// the batch-size ablation rely on it.
func TestExplicitBatchSizeIsExact(t *testing.T) {
	a, reads := testSetup(t, core.ModeOptimized)
	s := NewScheduler(a, 2)
	defer s.Close()
	derived := taskSize(len(reads), 2) // 400 reads on 2 workers: 64
	for _, tc := range []struct{ batch, tasks int }{
		{0, (len(reads) + derived - 1) / derived},
		{len(reads), 1},
		{512, 1},
		{7, (len(reads) + 6) / 7},
	} {
		before := s.QueueWait().Count()
		if _, err := RunStreamOn(context.Background(), s, reads, Config{BatchSize: tc.batch}, func(int, []byte) {}); err != nil {
			t.Fatal(err)
		}
		if got := s.QueueWait().Count() - before; got != int64(tc.tasks) {
			t.Errorf("BatchSize %d over %d reads: %d tasks, want %d", tc.batch, len(reads), got, tc.tasks)
		}
	}
}
