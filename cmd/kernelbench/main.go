// Command kernelbench regenerates the paper's kernel-level experiments:
// Table 4 (SMEM counters), Table 5 (SAL counters), Table 6 (BSW engine
// times), Table 7 (BSW instruction analysis), Table 8 (BSW time breakdown),
// and the design-choice ablations from DESIGN.md.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	var (
		genome = flag.Int("genome", 2_000_000, "synthetic reference length (bp)")
		scale  = flag.Float64("scale", 1.0, "read-count scale over the D1-D5 profiles")
		t4     = flag.Bool("table4", false, "run Table 4 (SMEM kernel counters)")
		t5     = flag.Bool("table5", false, "run Table 5 (SAL kernel counters)")
		t6     = flag.Bool("table6", false, "run Table 6 (BSW engine comparison)")
		t7     = flag.Bool("table7", false, "run Table 7 (BSW instruction analysis)")
		t8     = flag.Bool("table8", false, "run Table 8 (BSW time breakdown)")
		abl    = flag.Bool("ablations", false, "run design-choice ablations")
		all    = flag.Bool("all", false, "run everything")
	)
	flag.Parse()
	if !(*t4 || *t5 || *t6 || *t7 || *t8 || *abl || *all) {
		*all = true
	}
	cfg := experiments.Default()
	cfg.GenomeLen = *genome
	cfg.Scale = *scale
	fmt.Fprintf(os.Stderr, "[kernelbench] building %d bp environment...\n", cfg.GenomeLen)
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kernelbench:", err)
		os.Exit(1)
	}
	run := func(enabled bool, fn func() error) {
		if !enabled && !*all {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintln(os.Stderr, "kernelbench:", err)
			os.Exit(1)
		}
	}
	w := os.Stdout
	run(*t4, func() error { return experiments.Table4(w, env) })
	run(*t5, func() error { return experiments.Table5(w, env) })
	run(*t6, func() error { return experiments.Table6(w, env) })
	run(*t7, func() error { return experiments.Table7(w, env) })
	run(*t8, func() error { return experiments.Table8(w, env) })
	run(*abl, func() error {
		if err := experiments.AblationSACompression(w, env); err != nil {
			return err
		}
		if err := experiments.AblationBSWWidth(w, env); err != nil {
			return err
		}
		if err := experiments.AblationBSWSort(w, env); err != nil {
			return err
		}
		return experiments.AblationBatchSize(w, env)
	})
}
