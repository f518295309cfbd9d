package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bsw"
	"repro/internal/datasets"
	"repro/internal/pipeline"
	"repro/internal/sal"
)

// AblationSACompression sweeps the suffix-array compression factor,
// quantifying the §4.5 design point: factor 1 (flat) is the paper's choice;
// factor 128 is original BWA-MEM.
func AblationSACompression(w io.Writer, e *Env) error {
	header(w, "Ablation: suffix-array compression factor (lookup cost vs memory)")
	full := e.fullSA
	rows := make([]int, 0, 200000)
	for r := 0; r < len(full) && len(rows) < 200000; r += 7 {
		rows = append(rows, (r*2654435761)%len(full))
	}
	for _, intv := range []int{1, 8, 32, 128, 512} {
		sa, err := sal.New(full, intv, e.Base.Idx)
		if err != nil {
			return err
		}
		wall := timeLookups(sa, rows)
		steps := 0
		for _, r := range rows {
			_, n := sa.Walk(r)
			steps += n
		}
		row(w, fmt.Sprintf("factor %4d", intv),
			"%8.2f ms   %6.1f LF steps/lookup   footprint %6d KB",
			ms(wall), ratio(float64(steps), float64(len(rows))), sa.MemFootprint()/1024)
	}
	return nil
}

// AblationBSWWidth sweeps the lane width of the batched 8-bit kernel,
// isolating the cost of lane divergence as width grows (the trade the
// paper's sorting mitigates).
func AblationBSWWidth(w io.Writer, e *Env) error {
	header(w, "Ablation: batched BSW lane width (8-bit, sorted)")
	jobs, err := collectJobs8(e)
	if err != nil {
		return err
	}
	par := e.Opt.Opts.DefaultBSWParams()
	for _, width := range []int{4, 8, 16, 32, 64, 128} {
		var st bsw.BatchStats
		cfg := bsw.BatchConfig{Width8: width, Width16: 32, Sort: true,
			ForcePrecision: 8, Stats: &st}
		start := time.Now()
		bsw.RunBatch(&par, jobs, cfg)
		wall := time.Since(start)
		row(w, fmt.Sprintf("width %3d", width),
			"%8.1f ms   waste %5.1f%%   vector steps %10d   modeled x%.1f",
			ms(wall),
			100*(1-ratio(float64(st.UsefulCells), float64(st.TotalCells))),
			st.VectorSteps,
			ratio(float64(st.UsefulCells), float64(st.VectorSteps)))
	}
	fmt.Fprintln(w, " wider lanes amortize more in real SIMD but waste more slots;")
	fmt.Fprintln(w, " modeled speedup = useful cells per vector step.")
	return nil
}

// AblationBatchSize sweeps the pipeline's batch size. A batch is one
// scheduler task and a read's cost does not depend on its batch, so this
// measures dispatch amortisation only: one task hand-off per batch.
func AblationBatchSize(w io.Writer, e *Env) error {
	header(w, "Ablation: pipeline batch size (optimized aligner, 1 thread)")
	reads, err := e.reads(datasets.D4)
	if err != nil {
		return err
	}
	for _, bs := range []int{16, 64, 256, 1024, 4096} {
		res := pipeline.Run(e.Opt, reads, pipeline.Config{Threads: 1, BatchSize: bs})
		row(w, fmt.Sprintf("batch %4d", bs), "%8.1f ms", ms(res.Wall))
	}
	return nil
}

// AblationBSWSort isolates the radix-sorting benefit on the real job mix
// (Table 6 shows it on the 8-bit subset; this runs the full mix).
func AblationBSWSort(w io.Writer, e *Env) error {
	header(w, "Ablation: BSW job sorting on the full job mix")
	reads, err := e.reads(datasets.D3)
	if err != nil {
		return err
	}
	jobs := e.Opt.CollectBSWJobs(encodeAll(reads), nil)
	par := e.Opt.Opts.DefaultBSWParams()
	for _, srt := range []bool{false, true} {
		var st bsw.BatchStats
		cfg := bsw.BatchConfig{Width8: 64, Width16: 32, Sort: srt, Stats: &st}
		start := time.Now()
		bsw.RunBatch(&par, jobs, cfg)
		wall := time.Since(start)
		name := "unsorted"
		if srt {
			name = "sorted"
		}
		row(w, name, "%8.1f ms   total lane slots %12d   waste %5.1f%%",
			ms(wall), st.TotalCells,
			100*(1-ratio(float64(st.UsefulCells), float64(st.TotalCells))))
	}
	return nil
}
