package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bsw"
	"repro/internal/memsim"
)

// tinyEnv builds a small but non-trivial environment: the genome still
// exceeds the scaled LLC so the memory-counter tables behave qualitatively
// like the full runs.
func tinyEnv(t testing.TB) *Env {
	t.Helper()
	cfg := Config{
		GenomeLen:  400_000,
		Scale:      0.02,
		MaxThreads: 2,
		MemConfig:  memsim.Scaled(),
	}
	e, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

var update = flag.Bool("update", false, "rewrite testdata/counters.golden")

// timing matches the wall-clock parts of the counter experiments' output:
// Tables 4 and 5's "wall time" rows and the SA ablation's ms column.
var timing = regexp.MustCompile(`(?m)^.*wall time.*\n| +[\d.]+ ms`)

// bswCounts matches Table 6's title and its job, cell and row counts: the
// extension kernel's work on D3, the same on every build and CPU.
var bswCounts = regexp.MustCompile(`(?m)^== Table 6.*\n|^  (jobs|cells|rows) +\d+\n`)

// TestAllExperimentsRun runs every experiment once and pins the counter
// rows of Tables 4 and 5 and the SA-compression ablation, which depend only
// on the seeded data and the cost model, and Table 6's extension counts to
// testdata/counters.golden.
func TestAllExperimentsRun(t *testing.T) {
	e := tinyEnv(t)
	var counters strings.Builder
	for _, exp := range []struct {
		name string
		fn   func(*bytes.Buffer) error
	}{
		{"table1", func(b *bytes.Buffer) error { return Table1(b, e) }},
		{"table4", func(b *bytes.Buffer) error { return Table4(b, e) }},
		{"table5", func(b *bytes.Buffer) error { return Table5(b, e) }},
		{"table6", func(b *bytes.Buffer) error { return Table6(b, e) }},
		{"table7", func(b *bytes.Buffer) error { return Table7(b, e) }},
		{"figure4", func(b *bytes.Buffer) error { return Figure4(b, e) }},
		{"figure5", func(b *bytes.Buffer) error { return Figure5(b, e) }},
		{"ablation-sa", func(b *bytes.Buffer) error { return AblationSACompression(b, e) }},
		{"ablation-batch", func(b *bytes.Buffer) error { return AblationBatchSize(b, e) }},
	} {
		var buf bytes.Buffer
		if err := exp.fn(&buf); err != nil {
			t.Fatalf("%s: %v", exp.name, err)
		}
		if buf.Len() < 100 {
			t.Fatalf("%s: suspiciously short output:\n%s", exp.name, buf.String())
		}
		t.Logf("%s:\n%s", exp.name, buf.String())
		if exp.name == "table4" || exp.name == "table5" || exp.name == "ablation-sa" {
			counters.WriteString(timing.ReplaceAllString(buf.String(), ""))
		}
		if exp.name == "table6" {
			counters.WriteString("\n" + strings.Join(bswCounts.FindAllString(buf.String(), -1), ""))
		}
	}
	golden := filepath.Join("testdata", "counters.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(counters.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := counters.String(); got != string(want) {
		t.Fatalf("counter rows differ from %s (-update rewrites it):\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestBSWVectorCounts pins the vector share of Tables 6 and 7 where the
// AVX-512BW kernel runs: every D3 job fits int16, so every cell is a vector
// cell, and the steps of 32 cells are those of the per-row kernel the job
// kernel replaced, over the same bands (TestExtendScalarCellStats and
// FuzzExtendJob in internal/bsw check the steps against the Go row job by
// job).
func TestBSWVectorCounts(t *testing.T) {
	e := tinyEnv(t)
	n, _, st, err := extendAll(e)
	if err != nil {
		t.Fatal(err)
	}
	if st.VectorCells == 0 {
		t.Skipf("the vector kernel did not run on this CPU/build (%d jobs, %d cells)", n, st.ScalarCells)
	}
	if want := (bsw.CellStats{ScalarCells: 623480, ScalarRows: 21896, VectorCells: 623480, VectorSteps: 30693}); st != want {
		t.Fatalf("D3 extension counts: got %+v, want %+v", st, want)
	}
}

// extract pulls the first number following a label from experiment output.
func extract(t *testing.T, out, label string) float64 {
	t.Helper()
	re := regexp.MustCompile(regexp.QuoteMeta(label) + `\s+([-\d.]+)`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("label %q not found in output:\n%s", label, out)
	}
	v, err := strconv.ParseFloat(strings.TrimRight(m[1], "."), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", m[1], err)
	}
	return v
}

// TestTable5ShapeHolds asserts the headline SAL result survives the scaled
// run: the flat lookup does orders of magnitude less work per lookup.
func TestTable5ShapeHolds(t *testing.T) {
	e := tinyEnv(t)
	var buf bytes.Buffer
	if err := Table5(&buf, e); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	parts := strings.Split(out, "optimized (flat suffix array)")
	if len(parts) != 2 {
		t.Fatalf("unexpected output:\n%s", out)
	}
	instrOrig := extract(t, parts[0], "modeled instr / SA offset")
	instrOpt := extract(t, parts[1], "modeled instr / SA offset")
	if instrOrig < 50*instrOpt {
		t.Fatalf("SAL instruction gap collapsed: %.1f vs %.1f", instrOrig, instrOpt)
	}
}

// TestTable4ShapeHolds asserts the SMEM memory-behaviour shape: the η=32
// table without prefetch misses more than the original; prefetch brings
// misses well below both; the bit-plane table (config D) shares the
// original's line geometry, so its simulated misses are exactly config A's,
// and it scans at most two words per bucket visit.
func TestTable4ShapeHolds(t *testing.T) {
	e := tinyEnv(t)
	var buf bytes.Buffer
	if err := Table4(&buf, e); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	secs := strings.Split(out, "config ")
	if len(secs) != 5 {
		t.Fatalf("unexpected sections:\n%s", out)
	}
	missOrig := extract(t, secs[1], "LLC misses (simulated)")
	missNoPf := extract(t, secs[2], "LLC misses (simulated)")
	missPf := extract(t, secs[3], "LLC misses (simulated)")
	if missBP := extract(t, secs[4], "LLC misses (simulated)"); missBP != missOrig {
		t.Fatalf("bit-plane table should miss exactly like eta=128: %v vs %v", missBP, missOrig)
	}
	visits := extract(t, secs[4], "occ bucket visits")
	if words := extract(t, secs[4], "bucket words scanned"); visits == 0 || words > 2*visits {
		t.Fatalf("bit-plane table scanned %v words in %v visits, want at most 2 per visit", words, visits)
	}
	if !(missPf < missNoPf) {
		t.Fatalf("prefetch did not cut misses: %v -> %v", missNoPf, missPf)
	}
	if !(missNoPf > missOrig) {
		t.Fatalf("eta=32 without prefetch should miss more than eta=128: %v vs %v", missNoPf, missOrig)
	}
	instrOrig := extract(t, secs[1], "modeled instructions")
	instrOpt := extract(t, secs[2], "modeled instructions")
	if instrOpt >= instrOrig/1.5 {
		t.Fatalf("optimized kernel should model substantially fewer instructions: %v vs %v", instrOrig, instrOpt)
	}
}
