// Package streamerr requires every error produced by a streaming write —
// io.Writer Write/WriteString/Flush and friends, fmt.Fprint*, io.Copy —
// to be checked or explicitly, annotatedly discarded. On the SAM
// streaming path a dropped write error turns a disconnected client into
// silent data loss (the PR 2 lesson).
package streamerr

import (
	"bytes"
	"flag"
	"go/ast"
	"go/printer"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// scope holds the package-path fragments that make up the streaming path:
// the SAM/FASTA/FASTQ writers, the server and pipeline that drive them,
// the CLI, and the public facades. Report generators (internal/experiments)
// and best-effort diagnostics stay out by default.
var scope = []string{"internal/server", "internal/pipeline", "internal/seq", "internal/gateway", "internal/ordered", "cmd/bwamem", "cmd/bwagate", "/pkg/"}

var Analyzer = &analysis.Analyzer{
	Name: "streamerr",
	Doc: "require stream write/flush errors to be checked or annotated away\n\n" +
		"On the streaming path (internal/{server,pipeline,seq,gateway},\n" +
		"cmd/{bwamem,bwagate}, pkg/...), calls whose error result reports a\n" +
		"failed write (w.Write,\n" +
		"WriteString, WriteByte, WriteRune, Flush, ReadFrom; fmt.Fprint*;\n" +
		"io.WriteString, io.Copy) must have that error consumed. Discarding is\n" +
		"allowed only with //bwalint:ignore streamerr <reason> on the line.\n" +
		"Writers that cannot fail (bytes.Buffer, strings.Builder) and\n" +
		"os.Stderr diagnostics are exempt.",
	Flags: flags(),
	Run:   run,
}

var scopeFlag string

func flags() *flag.FlagSet {
	fs := flag.NewFlagSet("streamerr", flag.ExitOnError)
	fs.StringVar(&scopeFlag, "scope", strings.Join(scope, ","),
		"comma-separated package-path fragments treated as the streaming path")
	return fs
}

// writerMethods are method names that perform a write on their receiver.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Flush": true, "ReadFrom": true,
}

// writerFuncs maps package-level write functions to the index of their
// writer argument.
var writerFuncs = map[string]int{
	"fmt.Fprint": 0, "fmt.Fprintf": 0, "fmt.Fprintln": 0,
	"io.WriteString": 0, "io.Copy": 0,
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
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if desc := streamCall(pass, call); desc != "" {
						pass.Report(dropDiag(pass, call, desc, stack))
						return false
					}
				}
			case *ast.DeferStmt:
				if desc := streamCall(pass, n.Call); desc != "" {
					pass.Reportf(n.Pos(), "deferred %s drops its error on the stream path; flush explicitly and check the error before returning", desc)
					return false
				}
			case *ast.GoStmt:
				if desc := streamCall(pass, n.Call); desc != "" {
					pass.Reportf(n.Pos(), "go %s drops its error on the stream path", desc)
					return false
				}
			case *ast.AssignStmt:
				// The error result is the last one; assigning it to
				// blank is a discard and needs an annotation (which the
				// ignore filter then honors).
				if len(n.Rhs) == 1 {
					if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
						last := n.Lhs[len(n.Lhs)-1]
						if id, ok := last.(*ast.Ident); ok && id.Name == "_" {
							if desc := streamCall(pass, call); desc != "" {
								pass.Reportf(n.Pos(), "error from %s discarded without annotation; check it or add //bwalint:ignore streamerr <reason>", desc)
							}
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// dropDiag builds the diagnostic for a statement-position stream call,
// with a mechanical fix when the enclosing function can return the error.
func dropDiag(pass *analysis.Pass, call *ast.CallExpr, desc string, stack []ast.Node) analysis.Diagnostic {
	d := analysis.Diagnostic{
		Pos: call.Pos(),
		End: call.End(),
		Message: "error from " + desc + " is dropped on the stream path; check it " +
			"or discard explicitly with an annotated _ = (//bwalint:ignore streamerr <reason>)",
	}
	if !enclosingReturnsError(pass, stack) {
		return d
	}
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return d
	}
	blanks := ""
	for i := 0; i < sig.Results().Len()-1; i++ {
		blanks += "_, "
	}
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, pass.Fset, call); err == nil {
		d.SuggestedFixes = []analysis.SuggestedFix{{
			Message: "check the error",
			TextEdits: []analysis.TextEdit{{
				Pos:     call.Pos(),
				End:     call.End(),
				NewText: []byte("if " + blanks + "err := " + buf.String() + "; err != nil {\n\treturn err\n}"),
			}},
		}}
	}
	return d
}

// streamCall reports whether call is a failable stream write whose error
// matters, returning a short description ("(*bufio.Writer).Flush",
// "fmt.Fprintf") or "".
func streamCall(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !lastResultIsError(sig) {
		return ""
	}
	if sig.Recv() != nil {
		// Method form: w.Write(...), bw.Flush(), ...
		if !writerMethods[fn.Name()] {
			return ""
		}
		if exemptWriter(pass, sel.X) {
			return ""
		}
		return "(" + types.TypeString(sig.Recv().Type(), types.RelativeTo(pass.Pkg)) + ")." + fn.Name()
	}
	// Package-function form: fmt.Fprintf(w, ...), io.WriteString(w, ...).
	if fn.Pkg() == nil {
		return ""
	}
	qualified := fn.Pkg().Path() + "." + fn.Name()
	argIdx, ok := writerFuncs[qualified]
	if !ok || argIdx >= len(call.Args) {
		return ""
	}
	if exemptWriter(pass, call.Args[argIdx]) {
		return ""
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

// enclosingReturnsError reports whether the innermost enclosing function
// has error as its final result, so `return err` is a valid fix.
func enclosingReturnsError(pass *analysis.Pass, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		var t types.Type
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			if obj := pass.TypesInfo.ObjectOf(f.Name); obj != nil {
				t = obj.Type()
			}
		case *ast.FuncLit:
			t = pass.TypesInfo.TypeOf(f)
		default:
			continue
		}
		sig, ok := t.(*types.Signature)
		return ok && lastResultIsError(sig)
	}
	return false
}

func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	return types.Identical(res.At(res.Len()-1).Type(), types.Universe.Lookup("error").Type())
}

// exemptWriter reports writers whose Write cannot meaningfully fail:
// in-memory buffers and the process's stderr (best-effort diagnostics).
func exemptWriter(pass *analysis.Pass, w ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(w)
	if analysis.TypeIs(t, "bytes", "Buffer") || analysis.TypeIs(t, "strings", "Builder") ||
		analysis.TypeIs(t, "hash", "Hash") || analysis.TypeIs(t, "hash", "Hash32") ||
		analysis.TypeIs(t, "hash", "Hash64") {
		return true
	}
	if sel, ok := ast.Unparen(w).(*ast.SelectorExpr); ok {
		if obj, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Var); ok &&
			obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "Stderr" {
			return true
		}
	}
	return false
}
