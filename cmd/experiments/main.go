// Command experiments regenerates the paper's experiments: Table 1
// (run-time breakdown), Figure 4 (thread scaling), Figure 5 (end-to-end
// baseline-vs-optimized comparison), the kernel-level Tables 4-7 (SMEM and
// SAL counters; the shipped BSW kernel's time and vector occupancy)
// and the design-choice ablations (suffix-array compression, batch size).
// Each selector runs one experiment; with none (or -all) it runs
// everything. Results are printed as text, beside the values the paper
// reports; no file records them.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	var (
		genome  = flag.Int("genome", 2_000_000, "synthetic reference length (bp)")
		scale   = flag.Float64("scale", 1.0, "read-count scale over the D1-D5 profiles")
		threads = flag.Int("maxthreads", 0, "top of the Figure 4 sweep (0 = NumCPU)")
		t1      = flag.Bool("table1", false, "run Table 1 (run-time profile)")
		t4      = flag.Bool("table4", false, "run Table 4 (SMEM kernel counters)")
		t5      = flag.Bool("table5", false, "run Table 5 (SAL kernel counters)")
		t6      = flag.Bool("table6", false, "run Table 6 (BSW kernel time)")
		t7      = flag.Bool("table7", false, "run Table 7 (BSW vector occupancy)")
		f4      = flag.Bool("fig4", false, "run Figure 4 (thread scaling)")
		f5      = flag.Bool("fig5", false, "run Figure 5 (end-to-end comparison)")
		abl     = flag.Bool("ablations", false, "run the design-choice ablations")
		all     = flag.Bool("all", false, "run every table, figure and ablation")
	)
	flag.Parse()
	if !(*t1 || *t4 || *t5 || *t6 || *t7 || *f4 || *f5 || *abl || *all) {
		*all = true
	}
	cfg := experiments.Default()
	cfg.GenomeLen = *genome
	cfg.Scale = *scale
	if *threads > 0 {
		cfg.MaxThreads = *threads
	}
	fmt.Fprintf(os.Stderr, "[experiments] building %d bp environment...\n", cfg.GenomeLen)
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	w := os.Stdout
	run := func(enabled bool, fn func() error) {
		if !enabled && !*all {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	run(*t1, func() error { return experiments.Table1(w, env) })
	run(*t4, func() error { return experiments.Table4(w, env) })
	run(*t5, func() error { return experiments.Table5(w, env) })
	run(*t6, func() error { return experiments.Table6(w, env) })
	run(*t7, func() error { return experiments.Table7(w, env) })
	run(*f4, func() error { return experiments.Figure4(w, env) })
	run(*f5, func() error { return experiments.Figure5(w, env) })
	run(*abl, func() error { return experiments.AblationSACompression(w, env) })
	run(*abl, func() error { return experiments.AblationBatchSize(w, env) })
}
