// Package experiments regenerates the tables and figures of the paper's
// evaluation (§2.4 Table 1, §6.2 Tables 4-7, §6.3 Figures 4-5) on the
// synthetic workloads of internal/datasets, printing paper-reported values
// next to the measured ones so the shape of each result can be compared
// directly. Where the paper measures hardware that Go cannot drive, a model
// stands in: Tracer, installed as an index's fmindex.Probe, counts the SMEM
// and SAL kernels' operations and drives internal/memsim's simulated cache
// hierarchy for the LLC-miss rows and the software-prefetch hints; the
// serving kernels carry none of it. Tables 6-7 measure the shipped
// extension kernel, bsw.ExtendScalar; the paper's inter-task BSW lanes and
// Table 8's breakdown of them are not reproduced.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/memsim"
	"repro/internal/seq"
)

// Config sizes the experiments. The zero value is usable: Default() scales
// everything to finish in seconds on a laptop while keeping every ratio the
// paper depends on (index ≫ LLC for the memory tables, thousands of reads
// for stable timing).
type Config struct {
	GenomeLen  int     // synthetic reference length (forward strand)
	Scale      float64 // read-count multiplier over the D1-D5 profile sizes
	MaxThreads int     // top of the Figure 4 thread sweep; 0 = NumCPU
	MemConfig  memsim.Config
	Verbose    bool
}

// Default returns the standard experiment configuration.
func Default() Config {
	return Config{
		GenomeLen:  2_000_000,
		Scale:      1.0,
		MaxThreads: runtime.NumCPU(),
		MemConfig:  memsim.Scaled(),
	}
}

// Env carries the shared setup (reference and the aligner variants) so
// several experiments can reuse one index build.
type Env struct {
	Cfg  Config
	Ref  *seq.Reference
	Base *core.Aligner // ModeBaseline: η=128 index, compressed SA, per-read scalar BSW
	Opt  *core.Aligner // ModeOptimized: bit-plane index, flat SA

	fullSA []int32 // the shared full suffix array, for the SA-compression ablation
}

// NewEnv builds the reference and both aligner variants from one prebuilt
// index.
func NewEnv(cfg Config) (*Env, error) {
	if cfg.GenomeLen <= 0 {
		cfg = Default()
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.MaxThreads <= 0 {
		cfg.MaxThreads = runtime.NumCPU()
	}
	ref, err := datasets.Genome(datasets.DefaultGenome("chr1", cfg.GenomeLen, 42))
	if err != nil {
		return nil, err
	}
	pi, err := core.BuildPrebuilt(ref)
	if err != nil {
		return nil, err
	}
	base, err := core.NewAlignerFrom(pi, core.ModeBaseline, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	opt, err := core.NewAlignerFrom(pi, core.ModeOptimized, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return &Env{Cfg: cfg, Ref: ref, Base: base, Opt: opt, fullSA: pi.FullSA}, nil
}

// reads simulates a profile against the environment's reference.
func (e *Env) reads(p datasets.Profile) ([]seq.Read, error) {
	return datasets.Simulate(e.Ref, p.Scaled(e.Cfg.Scale))
}

// encodeAll converts reads to numeric codes.
func encodeAll(reads []seq.Read) [][]byte {
	out := make([][]byte, len(reads))
	for i := range reads {
		out[i] = seq.Encode(reads[i].Seq)
	}
	return out
}

// header prints a section banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}

// row prints an aligned label/value line.
func row(w io.Writer, label string, format string, args ...any) {
	fmt.Fprintf(w, "  %-34s "+format+"\n", append([]any{label}, args...)...)
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio guards against division by zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
