package analysis_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// buildBwalint compiles cmd/bwalint once per test binary and returns its path.
func buildBwalint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bwalint")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/bwalint")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building bwalint: %v\n%s", err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// scratchModule writes a throwaway module with one hotalloc violation, an
// escaping composite literal in a //bwalint:hot function, carrying a
// reasonless ignore directive.
func scratchModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module repro\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "internal", "kern", "kern.go"), `package kern

type cell struct{ v int }

//bwalint:hot
func Fill(out []*cell) {
	for i := range out {
		out[i] = &cell{v: i} //bwalint:ignore hotalloc
	}
}
`)
	return dir
}

// violationLine is the position of the escaping literal and its directive.
const violationLine = "kern.go:8:"

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runIn runs name with args in dir and returns its combined output and
// error.
func runIn(dir, name string, args ...string) ([]byte, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	return cmd.CombinedOutput()
}

// TestVettoolFailsOnViolations: a hotalloc violation must fail the build
// under go vet -vettool.
func TestVettoolFailsOnViolations(t *testing.T) {
	bin := buildBwalint(t)
	out, err := runIn(scratchModule(t), "go", "vet", "-vettool="+bin, "./...")
	if err == nil {
		t.Fatalf("go vet -vettool passed on a module with a deliberate violation\n%s", out)
	}
	if !bytes.Contains(out, []byte("escaping composite literal in hot region")) ||
		!bytes.Contains(out, []byte("[bwalint/hotalloc]")) {
		t.Errorf("vet output missing the hotalloc finding:\n%s", out)
	}
}

// TestVettoolProtocol checks the two handshake queries cmd/go issues before
// trusting a vettool: -V=full and -flags.
func TestVettoolProtocol(t *testing.T) {
	bin := buildBwalint(t)

	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	fields := strings.Fields(string(out))
	if len(fields) < 3 || fields[1] != "version" || !strings.HasPrefix(fields[len(fields)-1], "buildID=") {
		t.Fatalf("-V=full output not in cmd/go's expected shape: %q", out)
	}

	// go vet forwards only the flags listed here, and bwalint has none.
	out, err = exec.Command(bin, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	if got := strings.TrimSpace(string(out)); got != "[]" {
		t.Fatalf("-flags = %q, want []", got)
	}
}

// TestStandaloneMode runs bwalint directly (its front door re-executes
// go vet -vettool) against the scratch module and expects the finding plus
// a non-zero exit.
func TestStandaloneMode(t *testing.T) {
	bin := buildBwalint(t)
	out, err := runIn(scratchModule(t), bin, "./...")
	if err == nil {
		t.Fatalf("standalone bwalint exited 0 on a module with a violation\n%s", out)
	}
	if !bytes.Contains(out, []byte("[bwalint/hotalloc]")) {
		t.Errorf("standalone output missing the hotalloc finding:\n%s", out)
	}
}

// TestUnusedIgnoreDirective: a well-formed directive naming an analyzer
// that reports nothing on its lines must itself become a finding.
func TestUnusedIgnoreDirective(t *testing.T) {
	bin := buildBwalint(t)
	dir := scratchModule(t)
	writeFile(t, filepath.Join(dir, "internal", "kern", "stale.go"), `package kern

func Sum(xs []int) int {
	total := 0
	//bwalint:ignore hotalloc historic allocation, since removed
	for _, x := range xs {
		total += x
	}
	return total
}
`)
	out, _ := runIn(dir, bin, "./...")
	if !bytes.Contains(out, []byte("stale.go:5:")) || !bytes.Contains(out, []byte("unused ignore directive")) {
		t.Errorf("stale ignore directive not reported by the unused audit:\n%s", out)
	}
}

// TestMalformedDirective: an ignore directive with no reason must itself be
// reported and must not suppress the finding it rides on.
func TestMalformedDirective(t *testing.T) {
	bin := buildBwalint(t)
	out, _ := runIn(scratchModule(t), bin, "./...")
	var malformed, kept bool
	for _, line := range strings.Split(string(out), "\n") {
		if !strings.Contains(line, violationLine) {
			continue
		}
		malformed = malformed || strings.Contains(line, "malformed directive")
		kept = kept || strings.Contains(line, "[bwalint/hotalloc]")
	}
	if !malformed {
		t.Errorf("reason-less ignore directive not reported as malformed:\n%s", out)
	}
	if !kept {
		t.Errorf("reason-less directive suppressed the finding it rides on:\n%s", out)
	}
}
