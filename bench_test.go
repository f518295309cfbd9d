package repro

// One benchmark per table and figure of the paper's evaluation, each
// regenerating its experiment through internal/experiments on a
// benchmark-sized environment. Run with:
//
//	go test -bench=. -benchmem
//
// Larger, closer-to-the-paper runs: cmd/experiments (one selector per
// table, figure and ablation; -all for everything).

import (
	"io"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/memsim"
)

var (
	envOnce sync.Once
	envVal  *experiments.Env
	envErr  error
)

// benchEnv lazily builds one shared environment sized so every experiment
// completes in benchmark time while preserving the index-vs-LLC ratio the
// memory tables need.
func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		envVal, envErr = experiments.NewEnv(experiments.Config{
			GenomeLen:  600_000,
			Scale:      0.05,
			MaxThreads: 2,
			MemConfig:  memsim.Scaled(),
		})
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return envVal
}

func benchExperiment(b *testing.B, fn func(io.Writer, *experiments.Env) error) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(io.Discard, e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_Profile regenerates Table 1: the single-thread run-time
// breakdown of the baseline workflow on D1 and D4.
func BenchmarkTable1_Profile(b *testing.B) { benchExperiment(b, experiments.Table1) }

// BenchmarkTable4_SMEM regenerates Table 4: SMEM kernel operation counts,
// simulated LLC misses and latency for the four occurrence-table configs.
func BenchmarkTable4_SMEM(b *testing.B) { benchExperiment(b, experiments.Table4) }

// BenchmarkTable5_SAL regenerates Table 5: compressed vs flat suffix-array
// lookup cost.
func BenchmarkTable5_SAL(b *testing.B) { benchExperiment(b, experiments.Table5) }

// BenchmarkTable6_BSW regenerates Table 6: the shipped extension kernel
// over every D3 job.
func BenchmarkTable6_BSW(b *testing.B) { benchExperiment(b, experiments.Table6) }

// BenchmarkTable7_BSWCounters regenerates Table 7: the vector kernel's steps
// and useful-slot share.
func BenchmarkTable7_BSWCounters(b *testing.B) { benchExperiment(b, experiments.Table7) }

// BenchmarkFig4_Scaling regenerates Figure 4: thread scaling of both
// implementations on D1 and D5.
func BenchmarkFig4_Scaling(b *testing.B) { benchExperiment(b, experiments.Figure4) }

// BenchmarkFig5_EndToEnd regenerates Figure 5: end-to-end compute time of
// both implementations across all five dataset profiles.
func BenchmarkFig5_EndToEnd(b *testing.B) { benchExperiment(b, experiments.Figure5) }

// BenchmarkAblation_SACompression sweeps the suffix-array compression
// factor (the §4.5 design space between BWA-MEM's 128 and the paper's 1).
func BenchmarkAblation_SACompression(b *testing.B) {
	benchExperiment(b, experiments.AblationSACompression)
}

// BenchmarkAblation_BatchSize sweeps the reorganized pipeline's batch size.
func BenchmarkAblation_BatchSize(b *testing.B) { benchExperiment(b, experiments.AblationBatchSize) }
