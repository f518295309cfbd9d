// Package analysistest runs an analyzer over fixture packages under a
// testdata directory and checks its diagnostics against `// want`
// comments, in the style of golang.org/x/tools/go/analysis/analysistest.
//
// Fixture layout: testdata/src/<import/path>/*.go. A fixture file marks
// the diagnostics it expects with trailing comments on the offending
// line:
//
//	w.Write(b) // want `error from .* is dropped`
//
// Each string (quoted or backquoted) after "want" is a regexp; every
// diagnostic on the line must match some want, and every want must match
// some diagnostic. Fixture imports resolve against testdata/src first, so
// fixtures can model real module paths (repro/internal/core, ...);
// anything else falls back to the standard library, type-checked from
// source.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run loads each fixture package, applies a, and reports mismatches
// against the fixtures' want comments through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	ld := &fixtureLoader{
		src:  filepath.Join(testdata, "src"),
		fset: token.NewFileSet(),
		pkgs: make(map[string]*loaded),
	}
	ld.std = importer.ForCompiler(ld.fset, "source", nil)

	for _, path := range pkgPaths {
		lp, err := ld.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		diags, err := lp.unit.Run(a)
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, path, err)
		}
		diags = append(diags, lp.unit.DirectiveDiagnostics()...)
		checkWants(t, ld.fset, path, lp.files, diags)
	}
}

type loaded struct {
	files []*ast.File
	unit  *analysis.Unit
	pkg   *types.Package
}

type fixtureLoader struct {
	src  string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*loaded
}

func (l *fixtureLoader) load(path string) (*loaded, error) {
	if lp, ok := l.pkgs[path]; ok {
		return lp, nil
	}
	dir := filepath.Join(l.src, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %s has no Go files", path)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := &types.Config{Importer: importerFunc(l.importPkg)}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %v", path, err)
	}
	lp := &loaded{
		files: files,
		pkg:   pkg,
		unit:  &analysis.Unit{Fset: l.fset, Files: files, Pkg: pkg, Info: info},
	}
	l.pkgs[path] = lp
	return lp, nil
}

func (l *fixtureLoader) importPkg(path string) (*types.Package, error) {
	if _, err := os.Stat(filepath.Join(l.src, filepath.FromSlash(path))); err == nil {
		lp, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return lp.pkg, nil
	}
	return l.std.Import(path)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// wantRx extracts the quoted regexps of a want comment.
var wantRx = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func checkWants(t *testing.T, fset *token.FileSet, pkg string, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	type want struct {
		pos token.Position
		rx  *regexp.Regexp
		hit bool
	}
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ")
				if !ok {
					continue
				}
				for _, q := range wantRx.FindAllString(rest, -1) {
					pat := q
					if pat[0] == '"' {
						var err error
						if pat, err = strconv.Unquote(q); err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", fset.Position(c.Pos()), q, err)
						}
					} else {
						pat = pat[1 : len(pat)-1]
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %s: %v", fset.Position(c.Pos()), q, err)
					}
					wants = append(wants, &want{pos: fset.Position(c.Pos()), rx: rx})
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.pos.Filename == pos.Filename && w.pos.Line == pos.Line && w.rx.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].pos.Filename != wants[j].pos.Filename {
			return wants[i].pos.Filename < wants[j].pos.Filename
		}
		return wants[i].pos.Line < wants[j].pos.Line
	})
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s: no diagnostic matched want %q (package %s)", w.pos, w.rx, pkg)
		}
	}
}
