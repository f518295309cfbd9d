package experiments

import (
	"fmt"
	"io"

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
