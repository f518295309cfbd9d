package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bsw"
	"repro/internal/datasets"
)

// rowLanes is the number of int16 cells the vector kernel computes per step.
const rowLanes = 32

// extendAll runs every D3 extension job through bsw.ExtendScalar, the
// shipped engine, and returns the job count, the wall time and the cell
// accounting.
func extendAll(e *Env) (int, time.Duration, bsw.CellStats, error) {
	var st bsw.CellStats
	reads, err := e.reads(datasets.D3)
	if err != nil {
		return 0, 0, st, err
	}
	jobs := e.Opt.CollectBSWJobs(encodeAll(reads), nil)
	par := e.Opt.Opts.DefaultBSWParams()
	var buf bsw.ScalarBuf
	start := time.Now()
	for i := range jobs {
		j := &jobs[i]
		bsw.ExtendScalar(&par, j.Query, j.Target, j.W, j.H0, &buf, &st)
	}
	return len(jobs), time.Since(start), st, nil
}

// noVectorRow stands in for the vector rows of the tables where the
// AVX-512BW job kernel computed no cell; notReproduced closes both tables.
const (
	noVectorRow   = "vector kernel did not run on this CPU/build"
	notReproduced = "not reproduced here (ROADMAP 14)"
)

// Table6 times the shipped extension kernel over every D3 job and reports
// its cell and row counts and the share of cells the AVX-512BW job kernel
// (one call per job, 32 int16 cells per step within a row) computed. Paper (48M pairs,
// inter-task AVX512 lanes): scalar 283 s; 16-bit 65.4/44.5 s and 8-bit
// 42.1/24.5 s without/with length sorting, best speedup 11.6x.
func Table6(w io.Writer, e *Env) error {
	header(w, "Table 6: BSW extension (bsw.ExtendScalar, all D3 jobs)")
	n, wall, st, err := extendAll(e)
	if err != nil {
		return err
	}
	row(w, "jobs", "%d", n)
	row(w, "cells", "%d", st.ScalarCells)
	row(w, "rows", "%d", st.ScalarRows)
	row(w, "wall", "%.1f ms", ms(wall))
	row(w, "time per job", "%.2f us", ratio(float64(wall)/1e3, float64(n)))
	row(w, "time per cell", "%.2f ns", ratio(float64(wall), float64(st.ScalarCells)))
	if st.VectorCells == 0 {
		row(w, "cells on the vector kernel", noVectorRow)
	} else {
		row(w, "cells on the vector kernel", "%.1f%%", 100*ratio(float64(st.VectorCells), float64(st.ScalarCells)))
	}
	fmt.Fprintln(w, " paper (48M pairs, inter-task AVX512 lanes): scalar 283 s, 16-bit")
	fmt.Fprintln(w, " 65.4/44.5 s and 8-bit 42.1/24.5 s without/with sorting, best x11.6:")
	fmt.Fprintf(w, " %s.\n", notReproduced)
	return nil
}

// Table7 counts the vector kernel's steps of 32 cells within a row and the
// share of their slots that held a band cell, cells / (32 x steps): the intra-task
// counterpart of the paper's "useful cells are roughly half of the
// computed cells". Paper (8-bit inter-task lanes, sorted): 1,385e9 ->
// 100e9 instructions (13.85x), IPC 3.14 -> 2.17.
func Table7(w io.Writer, e *Env) error {
	header(w, "Table 7: BSW vector occupancy (bsw.ExtendScalar, all D3 jobs)")
	_, _, st, err := extendAll(e)
	if err != nil {
		return err
	}
	row(w, "cells", "%d", st.ScalarCells)
	if st.VectorCells == 0 {
		row(w, "cells on the vector kernel", noVectorRow)
	} else {
		row(w, "cells on the vector kernel", "%d", st.VectorCells)
		row(w, "vector steps (32 cells)", "%d", st.VectorSteps)
		row(w, "useful slots", "%.1f%%   paper ~50%% (inter-task lanes)",
			100*ratio(float64(st.VectorCells), float64(rowLanes*st.VectorSteps)))
	}
	fmt.Fprintln(w, " paper (8-bit inter-task lanes, sorted): 1,385e9 -> 100e9 instructions")
	fmt.Fprintf(w, " (x13.85), IPC 3.14 -> 2.17: %s.\n", notReproduced)
	return nil
}
