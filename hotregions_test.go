package repro

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestHotRegions keeps the kernels' hot regions free of allocation. A
// `//bwalint:hot [note]` comment marks a function (in its doc comment or on
// the line above it) or a loop (on its line or the line above). Each heap
// allocation that escape analysis (go build -gcflags=-m) reports in a region
// fails, as does a range over a map, whose random order defeats prefetching.
// `//bwalint:ignore hotalloc <reason>` on an allocation's line or the line
// above allows it; an allowance with no reason (malformed) or that excuses
// nothing (unused) fails. -m does not see append growing a slice from zero
// capacity; the kernels' AllocsPerRun tests do.
func TestHotRegions(t *testing.T) {
	for _, p := range hotRegionProblems(t, ".") {
		t.Error(p)
	}
}

// hotRegionProblems checks the hot regions of the module rooted at root.
func hotRegionProblems(t *testing.T, root string) []string {
	t.Helper()
	root, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	dirs := map[string]bool{}
	walkGoFiles(t, root, func(path string) error {
		src, err := os.ReadFile(path)
		if err == nil && !strings.HasSuffix(path, "_test.go") && bytes.Contains(src, []byte("//bwalint:")) && !dirs[filepath.Dir(path)] {
			dirs[filepath.Dir(path)] = true
			pkgs = append(pkgs, filepath.Dir(path))
		}
		return err
	})
	goCmd := func(args ...string) string {
		cmd := exec.Command("go", append(args, pkgs...)...)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go %s: %v\n%s", args[0], err, out)
		}
		return string(out)
	}
	// A -m heap allocation line, matched by what go1.22 and later both print.
	escapeLine := regexp.MustCompile(`(?m)^(.+\.go):(\d+):\d+: (.*(?:escapes to heap|moved to heap).*)$`)
	allocs := map[string][]string{} // "file:line" -> messages
	for _, m := range escapeLine.FindAllStringSubmatch(goCmd("build", "-gcflags=-m"), -1) {
		at := m[1] + ":" + m[2]
		if !filepath.IsAbs(m[1]) {
			at = filepath.Join(root, at)
		}
		if !slices.Contains(allocs[at], m[3]) { // an inlined or generic body repeats its lines
			allocs[at] = append(allocs[at], m[3])
		}
	}
	// The map rule needs types: check each package against the export data
	// of its dependencies, over the files this build compiles.
	exports := map[string]string{}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	var problems []string
	for _, line := range strings.Split(strings.TrimSpace(goCmd("list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}\t{{.Dir}}\t{{join .GoFiles \"\\t\"}}")), "\n") {
		f := strings.Split(line, "\t")
		exports[f[0]] = f[1]
		if !dirs[f[2]] {
			continue
		}
		var files []*ast.File
		for _, name := range f[3:] {
			file, err := parser.ParseFile(fset, filepath.Join(f[2], name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, file)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		if _, err := (&types.Config{Importer: imp}).Check(f[0], fset, files, info); err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			problems = append(problems, hotFileProblems(fset, file, info, allocs)...)
		}
	}
	return problems
}

// hotFileProblems checks one file's regions and allowances against the
// compiler's allocation lines.
func hotFileProblems(fset *token.FileSet, f *ast.File, info *types.Info, allocs map[string][]string) (problems []string) {
	line := func(p token.Pos) int { return fset.Position(p).Line }
	hot, allow, used, allowances := map[int]bool{}, map[int]*ast.Comment{}, map[*ast.Comment]bool{}, []*ast.Comment{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			switch w := strings.Fields(c.Text); w[0] {
			case "//bwalint:hot":
				hot[line(c.Pos())] = true
			case "//bwalint:ignore":
				if len(w) < 3 || w[1] != "hotalloc" {
					problems = append(problems, fmt.Sprintf("%s: malformed allowance %q: want //bwalint:ignore hotalloc <reason>", fset.Position(c.Pos()), c.Text))
					continue
				}
				allowances = append(allowances, c)
				allow[line(c.Pos())], allow[line(c.Pos())+1] = c, c
			}
		}
	}
	check := func(region ast.Node) {
		for l := line(region.Pos()); l <= line(region.End()); l++ {
			for _, msg := range allocs[fmt.Sprintf("%s:%d", fset.File(f.Pos()).Name(), l)] {
				if c := allow[l]; c != nil {
					used[c] = true
				} else {
					problems = append(problems, fmt.Sprintf("%s:%d: %s in a hot region", fset.File(f.Pos()).Name(), l, msg))
				}
			}
		}
		ast.Inspect(region, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
					problems = append(problems, fmt.Sprintf("%s: range over a map in a hot region: its random order defeats prefetching", fset.Position(rs.Pos())))
				}
			}
			return true
		})
	}
	marked := func(n ast.Node) bool { return hot[line(n.Pos())] || hot[line(n.Pos())-1] }
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if marked(fd) || fd.Doc != nil && slices.ContainsFunc(fd.Doc.List, func(c *ast.Comment) bool { return hot[line(c.Pos())] }) {
			check(fd)
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				if marked(n) {
					check(n)
					return false
				}
			}
			return true
		})
	}
	for _, c := range allowances {
		if !used[c] {
			problems = append(problems, fmt.Sprintf("%s: unused allowance: the compiler reports no heap allocation in a hot region on this line or the next", fset.Position(c.Pos())))
		}
	}
	return problems
}

// TestHotRegionsRules requires each rule broken in a fixture module to be reported.
func TestHotRegionsRules(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{"go.mod": "module k\n\ngo 1.22\n", "k.go": `package k

var sink *[8]int

//bwalint:hot
func Hot(m map[int]int) {
	sink = &[8]int{}
	//bwalint:ignore hotalloc
	for range m {
	}
	//bwalint:ignore hotalloc nothing here allocates
	sink[0] = 1
}
`} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	got := strings.Join(hotRegionProblems(t, dir), "\n")
	for _, want := range []string{"k.go:7: &[8]int{} escapes to heap in a hot region", "k.go:8:2: malformed allowance", "k.go:9:2: range over a map", "k.go:11:2: unused allowance"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}
