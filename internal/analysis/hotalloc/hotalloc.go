// Package hotalloc polices allocation in regions explicitly marked hot.
// The kernels this repo reproduces (banded Smith-Waterman batches,
// FM-index occurrence counting, SMEM generation) live or die by memory
// behavior — §3 of the paper is one long exercise in removing hidden
// allocation and pointer chasing — so the hot loops carry a
//
//	//bwalint:hot
//
// directive (on the function's doc comment for whole-function regions,
// or on/above a for/range statement for a single loop), and inside those
// regions the analyzer flags the Go constructs that allocate or defeat
// the hardware behind the kernel's back:
//
//   - composite literals whose address escapes (&T{...}) and new(T),
//   - implicit interface conversions (boxing) at call arguments and
//     explicit conversions to interface types,
//   - closure literals (the closure header allocates; captures pin
//     their variables to the heap),
//   - append to a slice that demonstrably starts at zero capacity
//     (declared var, nil, or empty literal — origins are traced through
//     the def-use index, so scratch-buffer reslices and parameters are
//     exempt), and
//   - map iteration (randomized order defeats prefetching; the paper's
//     kernels iterate dense arrays for a reason).
//
// The directive is a claim ("this region is measured hot"), the
// diagnostics are the audit of that claim. Code outside hot regions is
// never reported.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// hotDirective is the region marker. Text after the marker is a free-form
// justification ("//bwalint:hot smem backward pass").
const hotDirective = "//bwalint:hot"

// Analyzer is the hotalloc analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "report hidden allocation (escaping composites, interface boxing, closures, zero-capacity append growth, map iteration) inside //bwalint:hot regions",
	Run:  run,
}

// A region is one marked subtree plus the function it lives in (the
// def-use scope for append-origin tracing).
type region struct {
	root ast.Node
	fn   *ast.FuncDecl
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, reported: make(map[token.Pos]bool)}
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		hotLines := hotLines(pass.Fset, file)
		if len(hotLines) == 0 {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if c.funcIsHot(fd, hotLines) {
				c.checkRegion(region{root: fd.Body, fn: fd})
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					line := pass.Fset.Position(n.Pos()).Line
					if hotLines[line] || hotLines[line-1] {
						c.checkRegion(region{root: n, fn: fd})
						return false // inner loops are part of this region
					}
				}
				return true
			})
		}
	}
	return nil
}

// hotLines indexes the lines carrying a hot directive in one file.
func hotLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, cmt := range cg.List {
			if cmt.Text == hotDirective || strings.HasPrefix(cmt.Text, hotDirective+" ") {
				lines[fset.Position(cmt.Pos()).Line] = true
			}
		}
	}
	return lines
}

func (c *checker) funcIsHot(fd *ast.FuncDecl, hotLines map[int]bool) bool {
	if fd.Doc != nil {
		for _, cmt := range fd.Doc.List {
			if cmt.Text == hotDirective || strings.HasPrefix(cmt.Text, hotDirective+" ") {
				return true
			}
		}
	}
	line := c.pass.Fset.Position(fd.Pos()).Line
	return hotLines[line] || hotLines[line-1]
}

type checker struct {
	pass     *analysis.Pass
	reported map[token.Pos]bool
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}

func (c *checker) checkRegion(r region) {
	info := c.pass.TypesInfo
	du := analysis.FuncDefUse(info, r.fn.Body)
	ast.Inspect(r.root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.report(n.Pos(), "closure literal in hot region: the closure header allocates and captures pin their variables to the heap; hoist it out of the region")
			return false // its body runs on the closure's schedule, not the region's
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					c.report(n.Pos(), "escaping composite literal in hot region: &%s allocates per execution; reuse a scratch value", typeLabel(info, n.X))
				}
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := types.Unalias(t).Underlying().(*types.Map); ok {
					c.report(n.Pos(), "map iteration in hot region: randomized order defeats prefetching; iterate a dense slice instead")
				}
			}
		case *ast.CallExpr:
			c.checkCall(n, du, r)
		}
		return true
	})
}

func (c *checker) checkCall(call *ast.CallExpr, du *analysis.DefUse, r region) {
	info := c.pass.TypesInfo
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Explicit conversion: flag T(x) when T is an interface and x is
		// concrete.
		if isInterface(tv.Type) && len(call.Args) == 1 && concrete(info, call.Args[0]) {
			c.report(call.Pos(), "interface conversion in hot region: %s boxes its operand onto the heap", typeLabel(info, call.Fun))
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && info.ObjectOf(id) == types.Universe.Lookup("new") {
		c.report(call.Pos(), "new(...) in hot region allocates per execution; reuse a scratch value")
		return
	}
	if isBuiltinAppend(info, call) {
		c.checkAppend(call, du, r)
		return
	}
	sig, ok := types.Unalias(info.TypeOf(call.Fun)).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				continue // a []T passed through ... does not box per element
			}
			param = types.Unalias(sig.Params().At(sig.Params().Len() - 1).Type()).(*types.Slice).Elem()
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		default:
			continue
		}
		if isInterface(param) && concrete(info, arg) {
			c.report(arg.Pos(), "implicit interface conversion in hot region: %s is boxed into %s at this call", typeLabel(info, arg), types.TypeString(param, types.RelativeTo(c.pass.Pkg)))
		}
	}
}

// checkAppend flags append calls whose destination slice demonstrably
// starts with zero capacity.
func (c *checker) checkAppend(call *ast.CallExpr, du *analysis.DefUse, r region) {
	if len(call.Args) < 2 {
		return
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	obj, ok := c.pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok {
		return
	}
	if obj.Pos() < r.fn.Body.Pos() || obj.Pos() >= r.fn.Body.End() {
		return // parameter, receiver, or outer-scope slice: capacity unknown
	}
	vals, _ := du.ValuesOf(obj)
	for _, v := range vals {
		if isAppendCall(c.pass.TypesInfo, v) {
			continue // self-growth, not an origin
		}
		if !zeroCapOrigin(c.pass.TypesInfo, v) {
			return // some origin provides capacity (make, reslice, call, ...)
		}
	}
	c.report(call.Pos(), "append grows %s from zero capacity in hot region: every growth reallocates and copies; preallocate with make(%s, 0, n)",
		id.Name, types.TypeString(obj.Type(), types.RelativeTo(c.pass.Pkg)))
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && info.ObjectOf(id) == types.Universe.Lookup("append")
}

func isAppendCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && isBuiltinAppend(info, call)
}

// zeroCapOrigin reports whether e pins the slice's starting capacity at
// zero: nil, or an empty composite literal.
func zeroCapOrigin(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok && id.Name == "nil" && info.ObjectOf(id) == types.Universe.Lookup("nil") {
		return true
	}
	if lit, ok := e.(*ast.CompositeLit); ok && len(lit.Elts) == 0 {
		return true
	}
	return false
}

// isInterface reports whether t is an interface type a value boxes into. A
// type parameter is not one: its constraint is an interface, but a value
// converted to it stays unboxed in every instantiation.
func isInterface(t types.Type) bool {
	t = types.Unalias(t)
	_, param := t.(*types.TypeParam)
	return !param && types.IsInterface(t)
}

// concrete reports whether arg has a concrete (non-interface, non-nil)
// type — the shapes that box when converted to an interface.
func concrete(info *types.Info, arg ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(arg)]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	t := types.Unalias(tv.Type)
	if b, okB := t.(*types.Basic); okB && b.Kind() == types.UntypedNil {
		return false
	}
	return !types.IsInterface(t)
}

func typeLabel(info *types.Info, e ast.Expr) string {
	if t := info.TypeOf(e); t != nil {
		s := t.String()
		if i := strings.LastIndexByte(s, '/'); i >= 0 {
			return s[i+1:]
		}
		return s
	}
	return "value"
}
