// Package analysis is a self-contained static-analysis framework modeled
// on golang.org/x/tools/go/analysis, built only on the standard library so
// the repo's linters need no external module. It provides the Analyzer /
// Pass / Diagnostic vocabulary, a per-package runner with
// `//bwalint:ignore` suppression, and one driver: a unitchecker (RunUnit)
// speaking the `go vet -vettool` protocol. Main dispatches the protocol
// and turns a direct run into `go vet -vettool=<self>`.
//
// The escape hatch for every analyzer in the suite is an annotated
// directive on (or on the line before) the offending line:
//
//	//bwalint:ignore <analyzer>[,<analyzer>|all] <reason>
//
// A directive with no reason is inert and itself reported, so every
// suppression in the tree documents why the contract does not apply.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name is the analyzer's short identifier, used in diagnostics and
	// ignore directives.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run performs the check on one package, reporting findings
	// through the pass.
	Run func(*Pass) error
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass presents one package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether f is a _test.go file. Analyzers police
// production code and skip test files.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Package).Filename, "_test.go")
}

// A Unit is one loaded, type-checked package ready to be analyzed. The
// driver and the analysistest harness construct Units.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	sup *suppressions
}

// Run applies a to the unit and returns its surviving diagnostics sorted
// by position: findings on lines carrying (or directly following) a
// well-formed `//bwalint:ignore` directive naming a (or "all") are
// dropped.
func (u *Unit) Run(a *Analyzer) ([]Diagnostic, error) {
	pass := &Pass{Analyzer: a, Fset: u.Fset, Files: u.Files, Pkg: u.Pkg, TypesInfo: u.Info}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	if u.sup == nil {
		u.sup = newSuppressions(u.Fset, u.Files)
	}
	kept := pass.diags[:0]
	for _, d := range pass.diags {
		if !u.sup.covers(a.Name, u.Fset.Position(d.Pos)) {
			kept = append(kept, d)
		}
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].Pos < kept[j].Pos })
	return kept, nil
}

// DirectiveDiagnostics reports malformed `//bwalint:ignore` directives
// (ones missing an analyzer name or a reason). Such directives suppress
// nothing, so an undocumented escape hatch surfaces as a finding instead
// of silently widening. The driver calls this once per package.
func (u *Unit) DirectiveDiagnostics() []Diagnostic {
	if u.sup == nil {
		u.sup = newSuppressions(u.Fset, u.Files)
	}
	return u.sup.malformed
}

// UnusedDirectiveDiagnostics reports ignore directives that did nothing:
// ones naming an analyzer not in the suite (known, plus "all"), and ones
// whose named analyzer produced no finding on the covered lines. A dead
// directive is an audit gap — the contract it excused is either enforced
// again or was never exercised — so the driver treats it like any
// other finding. Valid only after every analyzer has run on the unit;
// directives in _test.go files are exempt (analyzers skip test files).
func (u *Unit) UnusedDirectiveDiagnostics(known map[string]bool) []Diagnostic {
	if u.sup == nil {
		return nil
	}
	var diags []Diagnostic
	for _, d := range u.sup.directives {
		if d.inTest {
			continue
		}
		switch {
		case d.name != "all" && !known[d.name]:
			diags = append(diags, Diagnostic{
				Pos:     d.pos,
				Message: fmt.Sprintf("ignore directive names unknown analyzer %q", d.name),
			})
		case !d.used:
			diags = append(diags, Diagnostic{
				Pos:     d.pos,
				Message: fmt.Sprintf("unused ignore directive: %s reports nothing on this line; remove the stale escape hatch", d.name),
			})
		}
	}
	return diags
}

const ignorePrefix = "//bwalint:ignore"

// directive is one analyzer name of one well-formed ignore directive
// ("a,b" directives produce two records sharing a position).
type directive struct {
	pos    token.Pos
	name   string
	used   bool
	inTest bool
}

// suppressions indexes the well-formed ignore directives of a package.
type suppressions struct {
	// byLine maps filename:line to the directives suppressing there.
	byLine     map[string][]*directive
	directives []*directive
	malformed  []Diagnostic
}

func newSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{byLine: make(map[string][]*directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, ignorePrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) < 2 {
					s.malformed = append(s.malformed, Diagnostic{
						Pos: c.Pos(),
						Message: fmt.Sprintf(
							"malformed directive %q: want %s <analyzer>[,<analyzer>] <reason> (directive has no effect)",
							c.Text, ignorePrefix),
					})
					continue
				}
				pos := fset.Position(c.Pos())
				inTest := strings.HasSuffix(pos.Filename, "_test.go")
				for _, name := range strings.Split(fields[0], ",") {
					d := &directive{pos: c.Pos(), name: name, inTest: inTest}
					s.directives = append(s.directives, d)
					// The directive covers its own line and, for
					// standalone comment lines, the line below.
					for _, line := range []int{pos.Line, pos.Line + 1} {
						key := lineKey(pos.Filename, line)
						s.byLine[key] = append(s.byLine[key], d)
					}
				}
			}
		}
	}
	return s
}

func (s *suppressions) covers(analyzer string, pos token.Position) bool {
	hit := false
	for _, d := range s.byLine[lineKey(pos.Filename, pos.Line)] {
		if d.name == analyzer || d.name == "all" {
			d.used = true
			hit = true
		}
	}
	return hit
}

func lineKey(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }
