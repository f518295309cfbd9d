package hotalloc_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/hotalloc"
)

func TestHotalloc(t *testing.T) {
	analysistest.Run(t, "testdata", hotalloc.Analyzer, "repro/internal/kern")
}

// TestKernelIdiomsClean mirrors the repo's real kernels: preallocated
// classifier slices and resliced scratch buffers stay quiet.
func TestKernelIdiomsClean(t *testing.T) {
	analysistest.Run(t, "testdata", hotalloc.Analyzer, "repro/internal/bsw")
}
