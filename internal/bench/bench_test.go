package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPickPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 19, ok: false}, // 9.5 samples beyond the median
		{n: 20, want: 50, ok: true},
		{n: 40, want: 75, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 999, want: 95, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 5142, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	} {
		got, ok := pickPercentile(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("pickPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileAndQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(s, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(s, 99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
	sum := summarize([]float64{4, 1, 3, 2, 5}, "x")
	if sum.Value != 3 || sum.Q1 != 2 || sum.Q3 != 4 || sum.N != 5 {
		t.Errorf("summarize = %+v", sum)
	}
	if got := sum.Spread(); got != 2.0/3 {
		t.Errorf("spread = %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "parent", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "child", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "child", Start: 20, End: 50},  // overlaps span 1: 10..50 is covered once
		{ID: 3, Parent: 0, Name: "child", Start: 90, End: 120}, // only 90..100 lies inside the parent
		{ID: 4, Parent: 2, Name: "grandchild", Start: 25, End: 35, Count: 7},
	}
	sums := SumSpans(spans)
	if got := sums["parent"]; got.Total != 100 || got.Self != 50 {
		t.Errorf("parent = %+v, want total 100 self 50", got)
	}
	if got := sums["child"]; got.Spans != 3 || got.Total != 20+30+30 || got.Self != 20+20+30 {
		t.Errorf("child = %+v", got)
	}
	if got := sums["grandchild"]; got.Self != 10 || got.Count != 7 {
		t.Errorf("grandchild = %+v", got)
	}

	tr := NewTracer("w")
	outer := tr.Begin("outer")
	inner := tr.Begin("inner")
	tr.End(inner, 3)
	tr.End(outer, 1)
	got := tr.Spans()
	if len(got) != 2 || got[0].Parent != -1 || got[1].Parent != got[0].ID || got[1].Count != 3 || got[1].Workload != "w" {
		t.Errorf("tracer spans = %+v", got)
	}
	if got[1].Start < got[0].Start || got[1].End > got[0].End {
		t.Errorf("inner span %+v not inside outer %+v", got[1], got[0])
	}
	var none *Tracer
	none.End(none.Begin("ignored"), 0) // a nil tracer records nothing and does not panic
}

func TestScoreSAM(t *testing.T) {
	rec := func(name, flag, pos string) string {
		return strings.Join([]string{name, flag, "chr1", pos, "60", "101M", "*", "0", "0", "ACGT", "IIII"}, "\t") + "\n"
	}
	sam := rec("w_0_1000_+", "0", "1001") + // exact
		rec("w_1_2000_-", "16", "2010") + // within tolerance, reverse
		rec("w_1_2000_-", "2064", "5000") + // supplementary: not scored
		rec("w_2_3000_+", "16", "3001") + // wrong strand
		rec("w_3_4000_+", "0", "4100") + // wrong place
		rec("w_4_5000_+", "4", "0") + // unmapped
		rec("w_5_6000_+", "256", "6001") // a read with no primary at all
	got, err := ScoreSAM([]byte(sam), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Primaries != 5 || got.Correct != 2 || got.Headless != 1 {
		t.Errorf("single-end tally = %+v", got)
	}
	if f := got.Failed(6); f != 2 {
		t.Errorf("Failed(6) = %d, want 2 (one missing primary, one headless read)", f)
	}

	// A 300 bp fragment at 1000: the forward end starts at 1000, the reverse
	// end 101 bases before the fragment's end.
	pair := rec("wp_0_1000_300", "99", "1001") + rec("wp_0_1000_300", "147", "1200") +
		rec("wp_1_5000_300", "99", "5001") + rec("wp_1_5000_300", "147", "9000")
	got, err = ScoreSAM([]byte(pair), true, 101)
	if err != nil {
		t.Fatal(err)
	}
	if got.Primaries != 4 || got.Correct != 3 || got.Headless != 0 {
		t.Errorf("paired tally = %+v", got)
	}
	if _, err := ScoreSAM([]byte("broken record"), false, 0); err == nil {
		t.Error("a record without a newline was accepted")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	serve, _ := WorkloadByName("serve_dup90")
	const cold = 400
	schedule := func(seed int64) (digest string, names []string, in *Inputs) {
		in, err := Generate(serve, seed, quickScale, cold)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range in.Clients {
			digest += fastqDigest(c.Hot, c.Cold)
			for i := 0; i < 50; i++ {
				req, ok := c.Next()
				if !ok {
					t.Fatalf("cold pool of %d ran out at request %d", cold, i)
				}
				for _, r := range req {
					names = append(names, r.Name)
				}
			}
		}
		return digest, names, in
	}
	d1, n1, in := schedule(7)
	d2, n2, _ := schedule(7)
	d3, n3, _ := schedule(8)
	if d1 != d2 || strings.Join(n1, ",") != strings.Join(n2, ",") {
		t.Error("the same seed gave different reads or a different schedule")
	}
	if d1 == d3 || strings.Join(n1, ",") == strings.Join(n3, ",") {
		t.Error("different seeds gave the same reads or the same schedule")
	}

	// Hot and cold sets share no sequence, across clients too; every cold
	// read is sent at most once; the repeated share is 90%.
	hot, seqs := map[string]bool{}, map[string]bool{}
	for _, c := range in.Clients {
		for _, r := range c.Hot {
			hot[r.Name] = true
			if seqs[string(r.Seq)] {
				t.Fatalf("sequence of %s occurs twice", r.Name)
			}
			seqs[string(r.Seq)] = true
		}
		for _, r := range c.Cold {
			if seqs[string(r.Seq)] {
				t.Fatalf("sequence of %s occurs twice", r.Name)
			}
			seqs[string(r.Seq)] = true
		}
	}
	dups, sentCold := 0, map[string]bool{}
	for _, name := range n1 {
		switch {
		case hot[name]:
			dups++
		case sentCold[name]:
			t.Fatalf("never-repeated read %s was sent twice", name)
		default:
			sentCold[name] = true
		}
	}
	if frac := float64(dups) / float64(len(n1)); frac < 0.89 || frac > 0.91 {
		t.Errorf("repeated share %.3f, want 0.90 +- 0.01", frac)
	}
	if got := float64(requestDups) / requestReads; got != 0.9 {
		t.Errorf("full-scale repeated share %.3f, want 0.90", got)
	}

	se, _ := WorkloadByName("se101")
	a, err := Generate(se, 7, quickScale, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(se, 7, quickScale, 0)
	c, _ := Generate(se, 8, quickScale, 0)
	if fastqDigest(a.Reads) != fastqDigest(b.Reads) || !bytes.Equal(a.Fasta, b.Fasta) {
		t.Error("the same seed gave different offline inputs")
	}
	if fastqDigest(a.Reads) == fastqDigest(c.Reads) || bytes.Equal(a.Fasta, c.Fasta) {
		t.Error("different seeds gave the same offline inputs")
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := func(v, q1, q3 float64) Summary { return Summary{Value: v, Q1: q1, Q3: q3, N: 9} }
	rps := MetricDef{Name: "reads_per_s", Better: higher, Bound: 0.08}
	p50 := MetricDef{Name: "request_p50_ms", Better: lower, Bound: 0.08}
	for _, tc := range []struct {
		name string
		def  MetricDef
		a, b Summary
		want Verdict
	}{
		{"same", rps, m(1000, 990, 1010), m(1000, 990, 1010), Unchanged},
		{"within the bound", rps, m(1000, 990, 1010), m(950, 940, 960), Unchanged},
		{"throughput down", rps, m(1000, 990, 1010), m(900, 890, 910), Regressed},
		{"throughput up", rps, m(1000, 990, 1010), m(1100, 1090, 1110), Improved},
		{"latency up", p50, m(10, 9.9, 10.1), m(11, 10.9, 11.1), Regressed},
		{"latency down", p50, m(10, 9.9, 10.1), m(9, 8.9, 9.1), Improved},
		{"parent too noisy", rps, m(1000, 900, 1100), m(800, 790, 810), Unresolved},
		{"change too noisy", p50, m(10, 9.9, 10.1), m(20, 15, 25), Unresolved},
	} {
		if got, _ := judge(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}

	res := func(rps float64, failed int) *Record {
		return &Record{Results: []*Result{{Workload: "se101", Correct: failed == 0, Attempted: 100, Failed: failed,
			Metrics: map[string]Summary{"reads_per_s": m(rps, rps*0.99, rps*1.01)}}}}
	}
	var out bytes.Buffer
	if Compare(res(1000, 0), res(990, 0), &out) {
		t.Errorf("an unchanged record was reported as regressed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "unchanged") {
		t.Errorf("no verdict printed:\n%s", out.String())
	}
	if !Compare(res(1000, 0), res(500, 0), &out) {
		t.Error("half the throughput was not reported as regressed")
	}
	if !Compare(res(1000, 0), res(1000, 3), &out) {
		t.Error("new failed reads were not reported as regressed")
	}
}

// benchmarkJSON is the driver's description of the benchmark at the
// repository root.
type benchmarkJSON struct {
	Command    []string            `json:"command"`
	Paths      []string            `json:"paths"`
	RunSeconds int                 `json:"run_seconds"`
	Workloads  []benchmarkWorkload `json:"workloads"`
	EndToEnd   []MetricDef         `json:"end_to_end"`
	PerLayer   []MetricDef         `json:"per_layer"`
}

var update = flag.Bool("update", false, "rewrite BENCHMARK.json's workloads and metrics from this package's tables")

var benchmarkJSONPath = filepath.Join("..", "..", "BENCHMARK.json")

type benchmarkWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(benchmarkJSONPath)
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and this package's tables
// identical: names, units, directions, bounds, workloads and their reasons.
func TestBenchmarkJSONMatches(t *testing.T) {
	b := readBenchmarkJSON(t)
	if *update {
		b.EndToEnd, b.PerLayer, b.Workloads = EndToEnd, PerLayer, nil
		for _, w := range Workloads() {
			b.Workloads = append(b.Workloads, benchmarkWorkload{w.Name, w.Why})
		}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchmarkJSONPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	same := func(kind string, got, want []MetricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the package %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, package %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, EndToEnd)
	same("per_layer", b.PerLayer, PerLayer)
	ws := Workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the package %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, package %q %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
}

// TestQuickSmoke runs the whole command on tiny inputs: all four workloads
// with tracing off, then the traced pass, and checks that every metric
// BENCHMARK.json names comes out with its unit and that nothing failed.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the aligner and a serving stack")
	}
	b := readBenchmarkJSON(t)
	start := time.Now()
	dir := t.TempDir()
	for _, pass := range []struct {
		trace string
		defs  []MetricDef
	}{{"0", b.EndToEnd}, {"1", b.PerLayer}} {
		var stdout, stderr bytes.Buffer
		out := filepath.Join(dir, "results"+pass.trace+".json")
		code := Main([]string{"-quick", "-seconds", "0.3", "-seed", "5", "-trace", pass.trace,
			"-out", out, "-trace-out", filepath.Join(dir, "trace.json")}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("-trace %s: exit %d\n%s%s", pass.trace, code, stdout.String(), stderr.String())
		}
		var lines []contractLine
		for _, ln := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(ln, "{") {
				var c contractLine
				if err := json.Unmarshal([]byte(ln), &c); err != nil {
					t.Fatalf("contract line %q: %v", ln, err)
				}
				lines = append(lines, c)
			}
		}
		if len(lines) != len(b.Workloads) {
			t.Fatalf("-trace %s: %d result lines for %d workloads\n%s", pass.trace, len(lines), len(b.Workloads), stdout.String())
		}
		for i, c := range lines {
			w := b.Workloads[i].Name
			if !c.Correct || c.Failed != 0 || c.Attempted < 1 {
				t.Errorf("%s -trace %s: correct %v, failed %d of %d\n%s", w, pass.trace, c.Correct, c.Failed, c.Attempted, stderr.String())
			}
			if len(c.Metrics) != len(pass.defs) {
				t.Errorf("%s -trace %s: %d metrics, want %d", w, pass.trace, len(c.Metrics), len(pass.defs))
			}
			for _, d := range pass.defs {
				if m, ok := c.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s -trace %s: metric %s = %+v, want unit %q", w, pass.trace, d.Name, m, d.Unit)
				}
			}
		}
		rec, err := ReadRecord(out)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Env.Seed != 5 || rec.Env.NProc < 1 || rec.Env.GoVersion == "" || rec.Env.Commit == "" {
			t.Errorf("record environment incomplete: %+v", rec.Env)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "trace.json")); err != nil {
		t.Errorf("the traced pass wrote no trace: %v", err)
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("quick smoke took %v, want under 10s", d)
	}
}

// TestKernelReplay dumps one workload's kernel inputs and replays both
// kernels from the files alone.
func TestKernelReplay(t *testing.T) {
	w, _ := WorkloadByName("se101")
	dir := t.TempDir()
	if err := DumpKernelInputs(w, Options{Seed: 3, Quick: true}, dir); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := ReplayBSW(filepath.Join(dir, "se101"+bswSuffix), &out); err != nil {
		t.Fatal(err)
	}
	if err := ReplaySMEM(filepath.Join(dir, "se101"+smemSuffix), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "us/job") || !strings.Contains(out.String(), "us/read") {
		t.Errorf("replay output:\n%s", out.String())
	}
	if err := ReplaySMEM(filepath.Join(dir, "se101"+bswSuffix), &out); err == nil {
		t.Error("a job file was accepted as a read file")
	}
}
