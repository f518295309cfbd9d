package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// unitConfig describes one compilation unit, decoded from the JSON *.cfg
// file `go vet -vettool` hands the tool for every package it vets. The
// field set mirrors the go command's (cmd/go/internal/work's vetConfig);
// unknown fields are ignored.
type unitConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string // import path -> canonical package path
	PackageFile               map[string]string // package path -> export-data file
	PackageVetx               map[string]string // package path -> facts file of an already-vetted dependency
	Standard                  map[string]bool
	VetxOnly                  bool   // facts-only run on a dependency
	VetxOutput                string // where the build system expects the facts file
	SucceedOnTypecheckFailure bool
}

// RunUnit executes the `go vet -vettool` protocol for one *.cfg file and
// exits the process: 0 on a clean pass, 1 when diagnostics were reported,
// fatal on protocol or type-checking errors. Types for imports come from
// the compiler's export data named in the config, so no source outside
// the unit is re-checked.
//
// Interprocedural facts ride the go command's vetx machinery: the facts
// of every dependency arrive via PackageVetx, fact-producing analyzers
// run during VetxOnly dependency visits, and the merged set (imported
// plus newly exported, so transitive facts survive even if the build
// system lists only direct dependencies) is written to VetxOutput.
// Standard-library units are skipped outright — the suite's contracts
// are module-internal — which keeps `go vet ./...` from type-checking
// the std closure.
//
// With fix (or diff) a reporting unit applies (or prints) the suggested
// fixes for its own files. The go command runs dependencies VetxOnly, so
// every file is fixed by exactly one unit. A fix run exits 0 without
// reporting: its positions are stale once files change, so re-run to see
// what remains.
func RunUnit(configFile string, analyzers []*Analyzer, fix, diff bool) {
	data, err := os.ReadFile(configFile)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := new(unitConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		fatalf("cannot decode vet config %s: %v", configFile, err)
	}

	writeFacts := func(facts *FactSet) {
		if cfg.VetxOutput == "" {
			return
		}
		var out []byte
		if facts != nil {
			if out, err = facts.Encode(); err != nil {
				fatalf("encoding facts: %v", err)
			}
		}
		if err := os.WriteFile(cfg.VetxOutput, out, 0o666); err != nil {
			fatalf("writing facts output: %v", err)
		}
	}

	if mod := moduleName(cfg.Dir); mod == "std" || mod == "cmd" {
		writeFacts(nil)
		os.Exit(0)
	}

	facts := NewFactSet()
	for _, vetxFile := range cfg.PackageVetx {
		data, err := os.ReadFile(vetxFile)
		if err != nil {
			continue // a dependency outside the facts protocol; treat as empty
		}
		if err := facts.Merge(data); err != nil {
			fatalf("facts of %s: %v", vetxFile, err)
		}
	}

	unit, err := typecheckUnit(cfg)
	if err != nil {
		if cfg.VetxOnly || cfg.SucceedOnTypecheckFailure {
			// The compiler will report the same errors with better
			// context; pass the dependency facts through and stay quiet.
			writeFacts(facts)
			os.Exit(0)
		}
		fatalf("%v", err)
	}
	unit.Facts = facts

	if cfg.VetxOnly {
		for _, a := range analyzers {
			if err := unit.RunFacts(a); err != nil {
				fatalf("%s (facts): %v", a.Name, err)
			}
		}
		writeFacts(facts)
		os.Exit(0)
	}

	var diags []ResolvedDiag
	for _, d := range unit.DirectiveDiagnostics() {
		diags = append(diags, ResolvedDiag{"bwalint", d})
	}
	for _, a := range analyzers {
		ds, err := unit.Run(a)
		if err != nil {
			fatalf("%s: %v", a.Name, err)
		}
		for _, d := range ds {
			diags = append(diags, ResolvedDiag{a.Name, d})
		}
	}
	for _, d := range unit.UnusedDirectiveDiagnostics(knownNames(analyzers)) {
		diags = append(diags, ResolvedDiag{"bwalint", d})
	}
	writeFacts(facts)

	if fix || diff {
		n, files, err := ApplyFixes(unit.Fset, diags, diff, os.Stdout)
		if err != nil {
			fatalf("applying fixes: %v", err)
		}
		if fix {
			if n > 0 {
				fmt.Fprintf(os.Stderr, "bwalint: applied %d fixes in %d files\n", n, files)
			}
			os.Exit(0)
		}
	}
	exit := 0
	for _, rd := range diags {
		printDiag(os.Stderr, unit.Fset, rd.Analyzer, rd.Diag)
		exit = 1
	}
	os.Exit(exit)
}

func typecheckUnit(cfg *unitConfig) (*Unit, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	exportImporter := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		// path is already canonical (post-ImportMap).
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := &types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			if mapped, ok := cfg.ImportMap[importPath]; ok {
				importPath = mapped
			}
			return exportImporter.Import(importPath)
		}),
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: cfg.GoVersion,
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
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", cfg.ImportPath, err)
	}
	return &Unit{Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func printDiag(w io.Writer, fset *token.FileSet, analyzer string, d Diagnostic) {
	fmt.Fprintf(w, "%s: %s [bwalint/%s]\n", fset.Position(d.Pos), d.Message, analyzer)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bwalint: "+format+"\n", args...)
	os.Exit(1)
}

// moduleRoot returns the nearest directory at or above dir holding a
// go.mod, and that file's contents ("" and nil when there is none).
func moduleRoot(dir string) (string, []byte) {
	for d := dir; ; {
		if data, err := os.ReadFile(filepath.Join(d, "go.mod")); err == nil {
			return d, data
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", nil
		}
		d = parent
	}
}

// moduleName returns the module path declared by the nearest go.mod above
// dir ("" when there is none). RunUnit uses it to recognize
// standard-library units ("std", "cmd") and skip fact computation there.
func moduleName(dir string) string {
	_, data := moduleRoot(dir)
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// ModuleRelative rewrites an absolute filename relative to its module
// root, with forward slashes: the stable, machine-independent form in
// which facts carry source positions across processes. Files outside any
// module are returned unchanged.
func ModuleRelative(filename string) string {
	root, _ := moduleRoot(filepath.Dir(filename))
	rel, err := filepath.Rel(root, filename)
	if root == "" || err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(filename)
	}
	return filepath.ToSlash(rel)
}
