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
// fields are the subset of the go command's vetConfig
// (cmd/go/internal/work) that the driver reads; the rest are ignored.
type unitConfig struct {
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string // import path -> canonical package path
	PackageFile               map[string]string // package path -> export-data file
	VetxOnly                  bool              // a dependency visit: nothing to report
	VetxOutput                string            // where the build system expects the facts file
	SucceedOnTypecheckFailure bool
}

// RunUnit executes the `go vet -vettool` protocol for one *.cfg file and
// exits the process: 0 on a clean pass, 1 when diagnostics were reported,
// fatal on protocol or type-checking errors. Types for imports come from
// the compiler's export data named in the config, so no source outside
// the unit is re-checked.
//
// Every analyzer in the suite is intraprocedural, so the go command's
// dependency visits (VetxOnly) and standard-library units have nothing to
// compute: the driver answers them with an empty facts file at
// VetxOutput, which the go command requires, and exits.
func RunUnit(configFile string, analyzers []*Analyzer) {
	data, err := os.ReadFile(configFile)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := new(unitConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		fatalf("cannot decode vet config %s: %v", configFile, err)
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fatalf("writing facts output: %v", err)
		}
	}
	if mod := moduleName(cfg.Dir); cfg.VetxOnly || mod == "std" || mod == "cmd" {
		os.Exit(0)
	}

	unit, err := typecheckUnit(cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			// The compiler will report the same errors with better
			// context; stay quiet.
			os.Exit(0)
		}
		fatalf("%v", err)
	}

	exit := 0
	report := func(analyzer string, diags []Diagnostic) {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s [bwalint/%s]\n", unit.Fset.Position(d.Pos), d.Message, analyzer)
			exit = 1
		}
	}
	report("bwalint", unit.DirectiveDiagnostics())
	for _, a := range analyzers {
		diags, err := unit.Run(a)
		if err != nil {
			fatalf("%s: %v", a.Name, err)
		}
		report(a.Name, diags)
	}
	report("bwalint", unit.UnusedDirectiveDiagnostics(knownNames(analyzers)))
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

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bwalint: "+format+"\n", args...)
	os.Exit(1)
}

// moduleName returns the module path declared by the nearest go.mod at
// or above dir ("" when there is none). RunUnit uses it to recognize
// standard-library units ("std", "cmd") and skip them.
func moduleName(dir string) string {
	for d := dir; ; {
		if data, err := os.ReadFile(filepath.Join(d, "go.mod")); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return strings.TrimSpace(rest)
				}
			}
			return ""
		}
		parent := filepath.Dir(d)
		if parent == d {
			return ""
		}
		d = parent
	}
}
