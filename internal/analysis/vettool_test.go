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

// scratchModule writes a throwaway module (named repro so the path-suffix
// scopes engage) containing one deliberate violation per analyzer family.
func scratchModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		p := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module repro\n\ngo 1.22\n")
	write("internal/core/core.go", `package core

type Prebuilt struct {
	FullSA []int32
}

type MappedIndex struct {
	Prebuilt
}
`)
	write("internal/server/handler.go", `package server

import (
	"context"
	"io"

	"repro/internal/core"
)

func Handle(w io.Writer, mi *core.MappedIndex) {
	ctx := context.Background()
	_ = ctx
	mi.FullSA[0] = 7
	w.Write([]byte("@HD\tVN:1.6\n"))
}
`)
	return dir
}

// TestVettoolFailsOnViolations is the acceptance check from the issue:
// deliberately introducing violations in a scratch package must fail the
// build under go vet -vettool.
func TestVettoolFailsOnViolations(t *testing.T) {
	bin := buildBwalint(t)
	dir := scratchModule(t)

	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool passed on a module with deliberate violations\n%s", out)
	}
	for _, wantFrag := range []string{
		"[bwalint/ctxflow]",
		"[bwalint/mmapalias]",
		"[bwalint/streamerr]",
	} {
		if !bytes.Contains(out, []byte(wantFrag)) {
			t.Errorf("vet output missing %s finding:\n%s", wantFrag, out)
		}
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

	out, err = exec.Command(bin, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	if !bytes.Contains(out, []byte(`"Name"`)) {
		t.Fatalf("-flags did not emit the JSON flag schema: %q", out)
	}
	// go vet forwards only the flags listed here: -fix and -diff must be
	// among them, and no baseline flag exists.
	for _, want := range []string{`"Name":"fix"`, `"Name":"diff"`} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("-flags does not list %s: %s", want, out)
		}
	}
	if bytes.Contains(out, []byte("baseline")) {
		t.Errorf("-flags lists a baseline flag: %s", out)
	}
}

// TestFixAndDiff drives ApplyFixes through go vet: -diff prints the
// ctxflow rewrite without touching the file, -fix applies it, and a plain
// vet run afterwards is clean.
func TestFixAndDiff(t *testing.T) {
	bin := buildBwalint(t)
	dir := t.TempDir()
	src := `package server

import "context"

func Handle(ctx context.Context) context.Context {
	return context.WithoutCancel(context.TODO())
}
`
	file := filepath.Join(dir, "internal", "server", "handler.go")
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		t.Fatal(err)
	}
	for p, content := range map[string]string{filepath.Join(dir, "go.mod"): "module repro\n\ngo 1.22\n", file: src} {
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run := func(name string, args ...string) ([]byte, error) {
		cmd := exec.Command(name, args...)
		cmd.Dir = dir
		return cmd.CombinedOutput()
	}

	out, _ := run(bin, "-diff", "./...")
	if !bytes.Contains(out, []byte("-\treturn context.WithoutCancel(context.TODO())")) ||
		!bytes.Contains(out, []byte("+\treturn context.WithoutCancel(ctx)")) {
		t.Errorf("-diff did not print the ctxflow hunk:\n%s", out)
	}
	if got, _ := os.ReadFile(file); string(got) != src {
		t.Fatalf("-diff modified the file:\n%s", got)
	}

	if out, err := run(bin, "-fix", "./..."); err != nil {
		t.Fatalf("-fix: %v\n%s", err, out)
	}
	if got, _ := os.ReadFile(file); !bytes.Contains(got, []byte("return context.WithoutCancel(ctx)\n")) {
		t.Fatalf("-fix did not rewrite the file:\n%s", got)
	}

	if out, err := run("go", "vet", "-vettool="+bin, "./..."); err != nil {
		t.Errorf("findings survived -fix: %v\n%s", err, out)
	}
}

// TestStandaloneMode runs bwalint directly (its front door re-executes
// go vet -vettool) against the scratch module and expects findings plus a
// non-zero exit.
func TestStandaloneMode(t *testing.T) {
	bin := buildBwalint(t)
	dir := scratchModule(t)

	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("standalone bwalint exited 0 on a module with violations\n%s", out)
	}
	if !bytes.Contains(out, []byte("[bwalint/mmapalias]")) {
		t.Errorf("standalone output missing mmapalias finding:\n%s", out)
	}
}

// TestUnusedIgnoreDirective: a well-formed directive naming an analyzer
// that no longer reports on its lines must itself become a finding.
func TestUnusedIgnoreDirective(t *testing.T) {
	bin := buildBwalint(t)
	dir := scratchModule(t)
	stale := `package server

import "context"

func Scoped(ctx context.Context) context.Context {
	//bwalint:ignore ctxflow historic detachment, since removed
	return ctx
}
`
	if err := os.WriteFile(filepath.Join(dir, "internal", "server", "stale.go"), []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, _ := cmd.CombinedOutput()
	if !bytes.Contains(out, []byte("unused ignore directive")) || !bytes.Contains(out, []byte("stale.go")) {
		t.Errorf("stale ignore directive not reported by the unused audit:\n%s", out)
	}
}

// TestMalformedDirective: an ignore directive with no reason must itself be
// reported and must not suppress the finding it rides on.
func TestMalformedDirective(t *testing.T) {
	bin := buildBwalint(t)
	dir := scratchModule(t)
	bad := `package server

import "context"

func Drain() {
	ctx := context.Background() //bwalint:ignore ctxflow
	_ = ctx
}
`
	if err := os.WriteFile(filepath.Join(dir, "internal", "server", "drain.go"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, _ := cmd.CombinedOutput()
	if !bytes.Contains(out, []byte("malformed")) {
		t.Errorf("reason-less ignore directive not reported as malformed:\n%s", out)
	}
	if !bytes.Contains(out, []byte("drain.go")) || !bytes.Contains(out, []byte("[bwalint/ctxflow]")) {
		t.Errorf("reason-less directive suppressed the finding it rides on:\n%s", out)
	}
}
