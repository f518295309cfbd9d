// Package bench is the repository's benchmark: four workloads generated
// from a seed, end-to-end metrics measured with tracing off, a separate
// traced pass that times calls into every layer's exported functions, and
// the tools around them (-compare, kernel-input dump and replay). README.md
// defines every metric and workload; cmd/bwabench is its command line.
//
// The program under test is not instrumented: layers are measured from
// outside, through pkg/bwamem, pkg/bwaclient, internal/gateway and the
// exported calls the README's table names.
package bench

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// Env is where and how a record was taken.
type Env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
	Time       string  `json:"time"`
}

// Record is what -out writes and -compare reads.
type Record struct {
	Env     Env            `json:"env"`
	Results []*Result      `json:"results,omitempty"` // tracing off
	Layers  []*LayerResult `json:"layers,omitempty"`  // the traced pass
}

// commit names the source revision: stamped by the build when there is one,
// asked of git otherwise, "unknown" outside a repository.
func commit(ctx context.Context) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// contractLine is the last line of standard output of a run: what the
// benchmark driver parses.
type contractLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]contractItem `json:"metrics"`
}

type contractItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printContract(out io.Writer, correct bool, attempted, failed int, metrics map[string]Summary) error {
	line := contractLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]contractItem{}}
	for name, m := range metrics {
		line.Metrics[name] = contractItem{Value: m.Value, Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}

// printResult prints one workload's end-to-end metrics by name, with units.
func printResult(out io.Writer, r *Result) {
	fmt.Fprintf(out, "\n== %s (tracing off): %s\n", r.Workload, r.Why)
	for _, d := range EndToEnd {
		m := r.Metrics[d.Name]
		noisy := ""
		if slices.Contains(r.Noisy, d.Name) {
			noisy = fmt.Sprintf("  NOISY: spread %.1f%% against a %g%% bound", 100*m.Spread(), 100*d.Bound)
		}
		fmt.Fprintf(out, "%-16s %14.6g %-5s q1 %.6g  q3 %.6g  n %d%s\n", d.Name, m.Value, m.Unit, m.Q1, m.Q3, m.N, noisy)
	}
	fmt.Fprintf(out, "%-16s %14.6g %-5s %d of %d reads\n", "failed_frac", r.FailedFrac(), "frac", r.Failed, r.Attempted)
	fmt.Fprintf(out, "passes %d; request_p99_ms is %s; correct %v; SAM sha256 %s; oracle responses %d\n",
		r.Passes, r.TailPct, r.Correct, r.SAMDigest, r.OracleSize)
}

// printLayers prints one workload's per-layer metrics and its ledger.
func printLayers(out io.Writer, l *LayerResult) {
	fmt.Fprintf(out, "\n== %s (traced pass, %d reads, %d spans)\n", l.Workload, l.Attempted, len(l.Spans))
	for _, d := range PerLayer {
		m := l.Metrics[d.Name]
		fmt.Fprintf(out, "%-34s %14.6g %s\n", d.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "\nledger, us per read, each layer on its own (* = counted as explaining the observed time):\n")
	for _, row := range l.Ledger {
		mark := " "
		if row.Leaf {
			mark = "*"
		}
		fmt.Fprintf(out, "%s %-9s %-42s %10.3f\n", mark, row.Layer, row.Call, row.USPerRead)
	}
	if len(l.Mismatches) > 0 {
		fmt.Fprintf(out, "INCORRECT: these paths returned different bytes: %s\n", strings.Join(l.Mismatches, ", "))
	}
	fmt.Fprintf(out, "client-observed %.3f us/read; starred rows explain %.1f%% of it\n", l.ObservedUSPerRead, 100*l.Explained)
	fmt.Fprintf(out, "aligner stage time is %.1f%% of a request through gateway:1\n", 100*l.KernelShare)
	fmt.Fprintf(out, "tracing overhead %+.2f%% (traced over untraced wall of the AlignBatch + AppendSAM loop)\n", 100*l.TracingOverhead)

	type selfRow struct {
		name string
		lt   LayerTime
	}
	var rows []selfRow
	for name, lt := range SumSpans(l.Spans) {
		rows = append(rows, selfRow{name, lt})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].lt.Self > rows[j].lt.Self })
	fmt.Fprintf(out, "span self time (span minus the part its children cover):\n")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-34s %8d spans %12.3f ms self %12.3f ms total\n", r.name, r.lt.Spans, float64(r.lt.Self)/1e6, float64(r.lt.Total)/1e6)
	}
}

// Main is the bwabench command line. It returns the process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bwabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: "+workloadNames()+" or all")
		seed     = fs.Int64("seed", 1, "seed every input is generated from")
		seconds  = fs.Float64("seconds", 10, "length of each workload's timed window")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced pass and its per-layer ledger")
		outPath  = fs.String("out", "", "write the results record (JSON) here")
		traceOut = fs.String("trace-out", "trace.json", "with -trace 1, write the spans here")
		quick    = fs.Bool("quick", false, "tiny inputs: a smoke test of every code path, not a measurement")
		compare  = fs.Bool("compare", false, "compare two results records: -compare a.json b.json")
		dumpDir  = fs.String("dump-kernel-inputs", "", "write each workload's BSW jobs, SMEM queries and index to this directory and exit")
		replayB  = fs.String("replay-bsw", "", "time bsw.ExtendScalar alone on a dumped *.bsw.txt and exit")
		replayS  = fs.String("replay-smem", "", "time Index.CollectIntervals alone on a dumped *.smem.txt and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bwabench:", err)
		return 1
	}
	ctx := context.Background()

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two results files, has %d arguments", fs.NArg()))
		}
		a, err := ReadRecord(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := ReadRecord(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if Compare(a, b, stdout) {
			return 1
		}
		return 0
	case *replayB != "":
		if err := ReplayBSW(*replayB, stdout); err != nil {
			return fail(err)
		}
		return 0
	case *replayS != "":
		if err := ReplaySMEM(*replayS, stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}

	workloads := Workloads()
	if *workload != "all" {
		w, ok := WorkloadByName(*workload)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q (have %s)", *workload, workloadNames()))
		}
		workloads = []Workload{w}
	}
	o := Options{Seed: *seed, Seconds: *seconds, Quick: *quick,
		Logf: func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) }}
	rec := &Record{Env: Env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(ctx), Seed: *seed, Seconds: *seconds, Quick: *quick, Time: time.Now().UTC().Format(time.RFC3339)}}
	fmt.Fprintf(stdout, "bwabench: nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d, %gs per workload\n",
		rec.Env.NProc, rec.Env.GOMAXPROCS, rec.Env.GoVersion, rec.Env.Commit, *seed, *seconds)

	if *dumpDir != "" {
		for _, w := range workloads {
			if err := DumpKernelInputs(w, o, *dumpDir); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "%s: kernel inputs in %s\n", w.Name, *dumpDir)
		}
		return 0
	}

	var spans []Span
	for _, w := range workloads {
		// A collection between workloads, so that one workload's garbage is
		// not collected on the next one's clock.
		runtime.GC()
		if *trace != 0 {
			l, err := TraceWorkload(ctx, w, o)
			if err != nil {
				return fail(err)
			}
			rec.Layers = append(rec.Layers, l)
			spans = append(spans, l.Spans...)
			printLayers(stdout, l)
			if err := printContract(stdout, l.Correct && l.Failed == 0, l.Attempted, l.Failed, l.Metrics); err != nil {
				return fail(err)
			}
			continue
		}
		r, err := RunWorkload(ctx, w, o)
		if err != nil {
			return fail(err)
		}
		rec.Results = append(rec.Results, r)
		printResult(stdout, r)
		if err := printContract(stdout, r.Correct, r.Attempted, r.Failed, r.Metrics); err != nil {
			return fail(err)
		}
	}
	if *trace != 0 && *traceOut != "" {
		if err := WriteTrace(*traceOut, spans); err != nil {
			return fail(err)
		}
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range Workloads() {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}
