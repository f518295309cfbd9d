package repro

import (
	"os/exec"
	"strings"
	"testing"
)

// The module's import-graph rules. Both checks read `go list` output, so
// they see exactly the graph the go command builds.

// goListImports runs `go list -f tmpl` over pkgs and returns one entry per
// output line: the package's import path, then the imports tmpl lists.
func goListImports(t *testing.T, tmpl string, pkgs ...string) [][]string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-f", tmpl}, pkgs...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	var lines [][]string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		lines = append(lines, strings.Fields(line))
	}
	return lines
}

// under reports whether pkg is one of roots or below one of them.
func under(pkg string, roots ...string) bool {
	for _, r := range roots {
		if pkg == r || strings.HasPrefix(pkg, r+"/") {
			return true
		}
	}
	return false
}

// TestShippedBinariesSkipTheRig asserts that the shipped binaries and the
// public SDK import none of the code that reproduces, measures or polices
// them.
func TestShippedBinariesSkipTheRig(t *testing.T) {
	rig := []string{
		"repro/internal/experiments",
		"repro/internal/memsim",
		"repro/internal/bench",
		"repro/internal/soak",
		"repro/internal/samcheck",
	}
	for _, pkg := range goListImports(t, "{{.ImportPath}}{{range .Imports}} {{.}}{{end}}",
		"-deps", "./cmd/bwamem", "./cmd/bwaserve", "./cmd/bwagate", "./pkg/...") {
		for _, imp := range pkg[1:] {
			if under(imp, rig...) {
				t.Errorf("%s imports %s", pkg[0], imp)
			}
		}
	}
}

// TestSAMCheckSharesNoCode asserts that the SAM validity oracle, tests
// included, depends on nothing in this module: it checks the aligner's
// output against the reference without any of the aligner's code.
func TestSAMCheckSharesNoCode(t *testing.T) {
	lines := goListImports(t, "{{.ImportPath}}", "-deps", "-test", "./internal/samcheck")
	if len(lines) == 0 {
		t.Fatal("go list printed nothing")
	}
	for _, pkg := range lines {
		if under(pkg[0], "repro") && !under(strings.TrimSuffix(pkg[0], ".test"), "repro/internal/samcheck") {
			t.Errorf("internal/samcheck depends on %s", pkg[0])
		}
	}
}

// TestFacadeImports is the facade rule: outside internal/ and pkg/,
// nothing imports the engine packages, in production or test files.
// Commands and examples go through pkg/bwamem and pkg/bwaclient, so the
// Go and wire API surfaces they use are the versioned ones. cmd/bwagate
// is the one exception: it is the gateway tier's binary, and
// internal/gateway has no pkg/ facade.
func TestFacadeImports(t *testing.T) {
	engine := []string{
		"repro/internal/core",
		"repro/internal/pipeline",
		"repro/internal/server",
		"repro/internal/gateway",
	}
	for _, pkg := range goListImports(t,
		"{{.ImportPath}}{{range .Imports}} {{.}}{{end}}{{range .TestImports}} {{.}}{{end}}{{range .XTestImports}} {{.}}{{end}}",
		"./...") {
		if pkg[0] == "repro/cmd/bwagate" || under(pkg[0], "repro/internal", "repro/pkg") {
			continue
		}
		for _, imp := range pkg[1:] {
			if under(imp, engine...) {
				t.Errorf("%s imports engine package %s: use pkg/bwamem or pkg/bwaclient", pkg[0], imp)
			}
		}
	}
}
