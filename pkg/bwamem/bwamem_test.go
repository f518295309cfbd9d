package bwamem

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/pipeline"
	"repro/internal/testutil"
)

// Shared fixture: one synthetic index + reads, built once (index
// construction dominates test time).
var fixture struct {
	once   sync.Once
	idx    *Index
	reads  []Read
	r1, r2 []Read
	err    error
}

const (
	fixtureBP   = 60000
	fixtureSeed = 21
)

func setup(t testing.TB) (*Index, []Read, []Read, []Read) {
	t.Helper()
	fixture.once.Do(func() {
		fixture.idx, fixture.err = Synthetic(fixtureBP, fixtureSeed)
		if fixture.err != nil {
			return
		}
		fixture.reads, fixture.err = fixture.idx.SimulateReads(300, 101, 7)
		if fixture.err != nil {
			return
		}
		fixture.r1, fixture.r2, fixture.err = fixture.idx.SimulatePairs(150, 101, 9)
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.idx, fixture.reads, fixture.r1, fixture.r2
}

// internalWant runs the internal pipeline over the same synthetic
// reference the fixture index wraps, as the facade's byte-identity oracle.
func internalWant(t *testing.T, mode core.Mode, reads []Read) []byte {
	t.Helper()
	ref, err := datasets.Genome(datasets.DefaultGenome("synthetic", fixtureBP, fixtureSeed))
	if err != nil {
		t.Fatal(err)
	}
	aln, err := core.NewAligner(ref, mode, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := pipeline.Run(aln, toSeqReads(reads), pipeline.Config{Threads: 4})
	return res.SAM
}

func TestAlignMatchesInternalPipeline(t *testing.T) {
	idx, reads, _, _ := setup(t)
	aln, err := New(idx, WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	defer aln.Close()

	sam, err := aln.AlignSAM(context.Background(), reads)
	if err != nil {
		t.Fatal(err)
	}
	want := internalWant(t, core.ModeOptimized, reads)
	if !strings.HasPrefix(string(sam), aln.Header()) {
		t.Fatal("AlignSAM output does not start with the SAM header")
	}
	if !bytes.Equal(sam[len(aln.Header()):], want) {
		t.Fatal("facade SAM records differ from internal pipeline.Run")
	}
}

// TestBaselineAndOptimizedIdentical holds the facade, which runs only the
// optimized design, to the original BWA-MEM design's output: the paper's
// like-for-like requirement.
func TestBaselineAndOptimizedIdentical(t *testing.T) {
	idx, reads, _, _ := setup(t)
	aln, err := New(idx, WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer aln.Close()
	sam, err := aln.AlignSAM(context.Background(), reads)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sam[len(aln.Header()):], internalWant(t, core.ModeBaseline, reads)) {
		t.Fatal("facade output differs from the baseline design's")
	}
}

func TestAlignPairedMatchesInternalPipeline(t *testing.T) {
	idx, _, r1, r2 := setup(t)
	aln, err := New(idx, WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	defer aln.Close()
	sam, err := aln.AlignPairedSAM(context.Background(), r1, r2)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := datasets.Genome(datasets.DefaultGenome("synthetic", fixtureBP, fixtureSeed))
	if err != nil {
		t.Fatal(err)
	}
	ca, err := core.NewAligner(ref, core.ModeOptimized, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := pipeline.RunPaired(ca, toSeqReads(r1), toSeqReads(r2), pipeline.Config{Threads: 4})
	if !bytes.Equal(sam[len(aln.Header()):], res.SAM) {
		t.Fatal("facade paired SAM differs from internal pipeline.RunPaired")
	}
}

func TestAlignStreamingEmitsEveryIndexOnce(t *testing.T) {
	idx, reads, _, _ := setup(t)
	aln, err := New(idx, WithThreads(4), WithBatchSize(32))
	if err != nil {
		t.Fatal(err)
	}
	defer aln.Close()
	var mu sync.Mutex
	seen := make(map[int]int)
	if err := aln.Align(context.Background(), reads, func(i int, rec []byte) {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		if len(rec) == 0 {
			t.Error("empty record emitted")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(reads) {
		t.Fatalf("emit covered %d of %d reads", len(seen), len(reads))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("read %d emitted %d times", i, n)
		}
	}
}

// TestAlignWithStats checks that the stats entry points emit exactly what
// Align/AlignPaired emit and summarize the call: reads counted (both ends
// of a pair), wall time, and every stage present with SMEM time recorded.
func TestAlignWithStats(t *testing.T) {
	idx, reads, r1, r2 := setup(t)
	aln, err := New(idx, WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer aln.Close()
	ctx := context.Background()
	collect := func(n int, run func(emit func(int, []byte)) error) [][]byte {
		t.Helper()
		recs := make([][]byte, n)
		if err := run(func(i int, rec []byte) { recs[i] = rec }); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	for _, tc := range []struct {
		name      string
		n, nReads int
		plain     func(emit func(int, []byte)) error
		withStats func(emit func(int, []byte)) (Stats, error)
	}{
		{"single", len(reads), len(reads),
			func(emit func(int, []byte)) error { return aln.Align(ctx, reads, emit) },
			func(emit func(int, []byte)) (Stats, error) { return aln.AlignWithStats(ctx, reads, emit) }},
		{"paired", len(r1), 2 * len(r1),
			func(emit func(int, []byte)) error { return aln.AlignPaired(ctx, r1, r2, emit) },
			func(emit func(int, []byte)) (Stats, error) { return aln.AlignPairedWithStats(ctx, r1, r2, emit) }},
	} {
		want := collect(tc.n, tc.plain)
		var st Stats
		got := collect(tc.n, func(emit func(int, []byte)) (err error) {
			st, err = tc.withStats(emit)
			return err
		})
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: record %d differs from the plain entry point:\n%s\nvs\n%s", tc.name, i, got[i], want[i])
				break
			}
		}
		if st.Reads != tc.nReads {
			t.Errorf("%s: Stats.Reads = %d, want %d", tc.name, st.Reads, tc.nReads)
		}
		if st.Wall <= 0 {
			t.Errorf("%s: Stats.Wall = %v, want > 0", tc.name, st.Wall)
		}
		for _, stage := range []string{"SMEM", "SAL", "CHAIN", "BSW-pre", "BSW", "SAM-FORM", "Misc"} {
			if _, ok := st.StageSeconds[stage]; !ok {
				t.Errorf("%s: StageSeconds lacks %q: %v", tc.name, stage, st.StageSeconds)
			}
		}
		if st.StageSeconds["SMEM"] <= 0 {
			t.Errorf("%s: StageSeconds[SMEM] = %v, want > 0", tc.name, st.StageSeconds["SMEM"])
		}
	}
}

func TestAlignCancelledContext(t *testing.T) {
	idx, reads, _, _ := setup(t)
	aln, err := New(idx, WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	defer aln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := aln.Align(ctx, reads, func(int, []byte) {}); err != context.Canceled {
		t.Fatalf("cancelled align: err = %v, want context.Canceled", err)
	}
}

func TestOptionValidation(t *testing.T) {
	idx, _, _, _ := setup(t)
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"negative threads", WithThreads(-1)},
		{"negative batch", WithBatchSize(-5)},
		{"zero match score", WithScores(0, 4)},
		{"zero gap extend", WithGapPenalties(6, 0)},
		{"negative clip", WithClipPenalties(-1, 5)},
		{"zero band", WithBandWidth(0)},
		{"zero zdrop", WithZDrop(0)},
		{"negative T", WithMinOutputScore(-1)},
	} {
		if _, err := New(idx, tc.opt); err == nil {
			t.Errorf("%s: New accepted invalid option", tc.name)
		}
	}
}

func TestScoringOptionsChangeOutput(t *testing.T) {
	idx, reads, _, _ := setup(t)
	strict, err := New(idx, WithThreads(2), WithMinOutputScore(100))
	if err != nil {
		t.Fatal(err)
	}
	defer strict.Close()
	lax, err := New(idx, WithThreads(2), WithMinOutputScore(0), WithSecondaryOutput(true))
	if err != nil {
		t.Fatal(err)
	}
	defer lax.Close()
	s1, err := strict.AlignSAM(context.Background(), reads)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := lax.AlignSAM(context.Background(), reads)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(s1, s2) {
		t.Fatal("scoring options had no effect on output")
	}
	if bytes.Count(s1, []byte{'\n'}) > bytes.Count(s2, []byte{'\n'}) {
		t.Fatal("strict -T output holds more records than -a output")
	}
}

func TestAlignPairedUnequalLists(t *testing.T) {
	idx, _, r1, r2 := setup(t)
	aln, err := New(idx, WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	defer aln.Close()
	if err := aln.AlignPaired(context.Background(), r1, r2[:len(r2)-1], func(int, []byte) {}); err == nil {
		t.Fatal("unequal pair lists accepted")
	}
}

func TestAlignAfterCloseFails(t *testing.T) {
	idx, reads, _, _ := setup(t)
	goroutines := testutil.Goroutines()
	aln, err := New(idx, WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aln.AlignSAM(context.Background(), reads[:4]); err != nil {
		t.Fatal(err)
	}
	aln.Close()
	aln.Close() // idempotent
	if err := aln.Align(context.Background(), reads[:1], func(int, []byte) {}); err == nil {
		t.Fatal("Align succeeded on a closed aligner")
	}
	// Close stops the scheduler's workers: none of them may survive it.
	testutil.CheckGoroutines(t, goroutines, 0)
}

// TestSetLogOutput checks both request-log formats through slog's
// handlers, and that an unknown format is refused.
func TestSetLogOutput(t *testing.T) {
	idx, reads, _, _ := setup(t)
	aln, err := New(idx, WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	defer aln.Close()
	srv, err := NewServer(aln, DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for format, want := range map[string]string{
		"json": `"level":"INFO","msg":"request","request_id":`,
		"text": ` level=INFO msg=request request_id=`,
	} {
		var buf bytes.Buffer
		if err := srv.SetLogOutput(&buf, format); err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		if err := WriteFastq(&body, reads[:1]); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/align", &body)
		req.Header.Set("Content-Type", "application/x-fastq")
		srv.ServeHTTP(httptest.NewRecorder(), req)
		line := buf.String()
		if !strings.Contains(line, want) || !strings.Contains(line, "/v1/align") || strings.Count(line, "\n") != 1 {
			t.Errorf("%s log line %q, want one line containing %q", format, line, want)
		}
		if format == "json" && !json.Valid(buf.Bytes()) {
			t.Errorf("json log line is not JSON: %q", line)
		}
	}
	if err := srv.SetLogOutput(os.Stderr, "xml"); err == nil {
		t.Error("SetLogOutput accepted format xml")
	}
}

func TestFastqRoundTrip(t *testing.T) {
	_, reads, _, _ := setup(t)
	var buf bytes.Buffer
	if err := WriteFastq(&buf, reads[:20]); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFastq(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 20 {
		t.Fatalf("round trip: %d reads, want 20", len(back))
	}
	for i := range back {
		if back[i].Name != reads[i].Name || !bytes.Equal(back[i].Seq, reads[i].Seq) {
			t.Fatalf("read %d mutated in FASTQ round trip", i)
		}
	}
}

func TestIndexWriteOpenRoundTrip(t *testing.T) {
	idx, reads, _, _ := setup(t)
	dir := t.TempDir()
	path := dir + "/ref.bwago"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, open := range []struct {
		name string
		fn   func(string) (*Index, error)
	}{{"Open", Open}, {"OpenMmap", OpenMmap}} {
		loaded, err := open.fn(path)
		if err != nil {
			t.Fatalf("%s: %v", open.name, err)
		}
		aln, err := New(loaded, WithThreads(2))
		if err != nil {
			t.Fatal(err)
		}
		sam, err := aln.AlignSAM(context.Background(), reads[:50])
		if err != nil {
			t.Fatal(err)
		}
		want := internalWant(t, core.ModeOptimized, reads[:50])
		if !bytes.Equal(sam[len(aln.Header()):], want) {
			t.Fatalf("%s: reloaded index output differs", open.name)
		}
		aln.Close()
		if err := loaded.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIndexMetadata(t *testing.T) {
	idx, _, _, _ := setup(t)
	if got := idx.Contigs(); len(got) != 1 || got[0] != "synthetic" {
		t.Fatalf("Contigs() = %v", got)
	}
	if idx.ReferenceLength() != fixtureBP {
		t.Fatalf("ReferenceLength() = %d, want %d", idx.ReferenceLength(), fixtureBP)
	}
	if idx.Info().Source != "synthetic-build" {
		t.Fatalf("Info().Source = %q", idx.Info().Source)
	}
}

func TestStageSecondsPopulated(t *testing.T) {
	idx, reads, _, _ := setup(t)
	aln, err := New(idx, WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer aln.Close()
	if _, err := aln.AlignSAM(context.Background(), reads[:100]); err != nil {
		t.Fatal(err)
	}
	ss := aln.StageSeconds()
	if ss["SMEM"] <= 0 {
		t.Fatalf("StageSeconds missing SMEM time: %v", ss)
	}
}
