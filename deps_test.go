package repro

import (
	"os/exec"
	"strings"
	"testing"
)

// TestShippedBinariesSkipTheRig asserts that the shipped binaries and the
// public SDK import none of the code that reproduces, measures or polices
// them.
func TestShippedBinariesSkipTheRig(t *testing.T) {
	denied := []string{
		"repro/internal/experiments",
		"repro/internal/memsim",
		"repro/internal/bench",
		"repro/internal/soak",
		"repro/internal/analysis",
	}
	cmd := exec.Command("go", "list", "-deps",
		"-f", "{{.ImportPath}}{{range .Imports}} {{.}}{{end}}",
		"./cmd/bwamem", "./cmd/bwaserve", "./cmd/bwagate", "./pkg/...")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		for _, imp := range fields[1:] {
			for _, d := range denied {
				if imp == d || strings.HasPrefix(imp, d+"/") {
					t.Errorf("%s imports %s", fields[0], imp)
				}
			}
		}
	}
}
