// Package ctxflow flags context plumbing violations in request-path
// packages: fresh context.Background()/context.TODO() roots and nil
// Contexts where the caller's ctx should flow, so cancellation and
// deadlines propagate end to end (PR 2 contract).
package ctxflow

import (
	"flag"
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// scope holds the package-path fragments that mark request-path code.
var scope = []string{"internal/server", "internal/pipeline", "internal/rescache", "internal/gateway", "internal/ordered", "cmd/bwagate", "/pkg/"}

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "require request-path code to plumb its caller's context\n\n" +
		"In internal/{server,pipeline,rescache,gateway}, cmd/bwagate, and\n" +
		"pkg/..., non-test code must\n" +
		"not mint context.Background()/context.TODO() (it detaches the work from\n" +
		"request cancellation and deadlines) or pass a nil Context. Deliberate\n" +
		"detachment (shutdown paths, context-free compatibility wrappers) must\n" +
		"say so: //bwalint:ignore ctxflow <reason>.",
	Flags: flags(),
	Run:   run,
}

var scopeFlag string

func flags() *flag.FlagSet {
	fs := flag.NewFlagSet("ctxflow", flag.ExitOnError)
	fs.StringVar(&scopeFlag, "scope", strings.Join(scope, ","),
		"comma-separated package-path fragments treated as request-path code")
	return fs
}

func run(pass *analysis.Pass) error {
	inScope := false
	for _, s := range strings.Split(scopeFlag, ",") {
		if s != "" && strings.Contains(pass.Pkg.Path(), s) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		analysis.WalkStack(file, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name := contextRoot(pass, call); name != "" {
				d := analysis.Diagnostic{
					Pos: call.Pos(),
					End: call.End(),
					Message: "context." + name + "() in request-path package " + pass.Pkg.Path() +
						" detaches work from request cancellation; plumb the caller's ctx",
				}
				if ctxParam := enclosingCtxParam(pass, stack); ctxParam != "" {
					d.SuggestedFixes = []analysis.SuggestedFix{{
						Message: "use the in-scope context " + ctxParam,
						TextEdits: []analysis.TextEdit{{
							Pos: call.Pos(), End: call.End(), NewText: []byte(ctxParam),
						}},
					}}
				}
				pass.Report(d)
			}
			reportNilContextArgs(pass, call)
			return true
		})
	}
	return nil
}

// contextRoot returns "Background" or "TODO" when call is a direct call
// of that context-package function.
func contextRoot(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if name := fn.Name(); name == "Background" || name == "TODO" {
		return name
	}
	return ""
}

// reportNilContextArgs flags literal nil arguments in context.Context
// parameter positions.
func reportNilContextArgs(pass *analysis.Pass, call *ast.CallExpr) {
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok || id.Name != "nil" || pass.TypesInfo.ObjectOf(id) != types.Universe.Lookup("nil") {
			continue
		}
		pi := i
		if sig.Variadic() && pi >= sig.Params().Len() {
			pi = sig.Params().Len() - 1
		}
		if pi < 0 || pi >= sig.Params().Len() {
			continue
		}
		if isContextType(sig.Params().At(pi).Type()) {
			pass.Reportf(arg.Pos(), "nil Context passed on the request path; use the caller's ctx (or document detachment with context.WithoutCancel)")
		}
	}
}

// enclosingCtxParam finds the nearest enclosing function declaration or
// literal with a named context.Context parameter and returns its name.
func enclosingCtxParam(pass *analysis.Pass, stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		var ft *ast.FuncType
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			ft = f.Type
		case *ast.FuncLit:
			ft = f.Type
		default:
			continue
		}
		for _, field := range ft.Params.List {
			if !isContextType(pass.TypesInfo.TypeOf(field.Type)) {
				continue
			}
			for _, name := range field.Names {
				if name.Name != "_" {
					return name.Name
				}
			}
		}
	}
	return ""
}

func isContextType(t types.Type) bool {
	return t != nil && types.TypeString(t, nil) == "context.Context"
}
