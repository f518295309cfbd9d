// Package goroleak flags goroutines started on the request path whose
// lifetime nothing bounds. A goroutine spawned while serving a request
// must be joined or cancelled before the request's resources (the
// response writer, the per-request WaitGroup, pooled buffers) are
// reclaimed; one that is not keeps running after the handler returns —
// the classic slow leak that soak runs surface as monotonically growing
// goroutine counts.
//
// A spawn is considered bounded when the goroutine body (directly or
// through calls the analyzer can resolve):
//
//   - selects or receives on a context's Done channel,
//   - calls Done on a sync.WaitGroup (the spawner's join point),
//   - consumes a channel from inside a for loop (a worker that exits
//     when the channel closes), or
//   - closes a channel that the spawning function receives from (a
//     completion handoff the spawner waits on).
//
// Summaries propagate across packages as facts, so a request-path call
// to a helper in another package that launches an unbounded goroutine is
// reported at the call site, even though the go statement lives
// elsewhere. Diagnostics are confined to the request-path packages named
// by -goroleak.scope; everything else only contributes summaries.
package goroleak

import (
	"flag"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// A Summary is the per-function fact goroleak propagates across
// packages.
type Summary struct {
	// BodyBounded marks a function safe to run as a goroutine body:
	// its execution is tied to a context, WaitGroup, or channel the
	// spawner controls.
	BodyBounded bool `json:"bodyBounded,omitempty"`
	// SpawnsUnbounded marks a function that (transitively) starts a
	// goroutine with no boundedness evidence when called.
	SpawnsUnbounded bool `json:"spawnsUnbounded,omitempty"`
	// Via names the function the unbounded go statement lives in, for
	// call-site diagnostics.
	Via string `json:"via,omitempty"`
}

// AFact marks Summary as a fact type.
func (*Summary) AFact() {}

var scope string

// Analyzer is the goroleak analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "goroleak",
	Doc:       "report request-path goroutines that can outlive the request (no ctx.Done select, WaitGroup join, channel consumption loop, or close handoff)",
	Flags:     flags(),
	FactTypes: []analysis.Fact{(*Summary)(nil)},
	Run:       run,
}

func flags() *flag.FlagSet {
	fs := flag.NewFlagSet("goroleak", flag.ExitOnError)
	fs.StringVar(&scope, "scope", "internal/server,internal/pipeline,internal/rescache,internal/gateway,internal/ordered",
		"comma-separated package-path suffixes treated as request-path (diagnostics are confined to them)")
	return fs
}

func inScope(path string) bool {
	for _, s := range strings.Split(scope, ",") {
		if s != "" && analysis.PkgPathMatches(path, s) {
			return true
		}
	}
	return false
}

// checker carries the per-package fixpoint state.
type checker struct {
	pass    *analysis.Pass
	graph   *analysis.CallGraph
	du      map[*ast.FuncDecl]*analysis.DefUse
	bounded map[*types.Func]bool   // body is a safe goroutine body
	spawns  map[*types.Func]string // fn transitively starts an unbounded goroutine; value = via
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:    pass,
		graph:   analysis.BuildCallGraph(pass),
		du:      make(map[*ast.FuncDecl]*analysis.DefUse),
		bounded: make(map[*types.Func]bool),
		spawns:  make(map[*types.Func]string),
	}

	// Fixpoint 1: which declared functions are bounded goroutine bodies.
	// Evidence flows through resolvable calls, so a body that only calls
	// a draining helper inherits the helper's evidence.
	for changed := true; changed; {
		changed = false
		for _, node := range c.graph.Order {
			if c.bounded[node.Fn] {
				continue
			}
			if c.evidence(node.Decl.Body, c.defUse(node.Decl), nil) {
				c.bounded[node.Fn] = true
				changed = true
			}
		}
	}

	// Classify every go statement; collect the unbounded ones.
	type unboundedGo struct {
		node *analysis.CallNode
		stmt *ast.GoStmt
	}
	var unbounded []unboundedGo
	for _, node := range c.graph.Order {
		fn := node.Fn
		du := c.defUse(node.Decl)
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !c.goBounded(g, du, node.Decl.Body) {
				unbounded = append(unbounded, unboundedGo{node, g})
				if _, seen := c.spawns[fn]; !seen {
					c.spawns[fn] = qualifiedName(fn)
				}
			}
			return true
		})
	}

	// Fixpoint 2: spawning propagates to callers, locally and via facts.
	for changed := true; changed; {
		changed = false
		for _, node := range c.graph.Order {
			fn := node.Fn
			if _, seen := c.spawns[fn]; seen {
				continue
			}
			for _, call := range node.Calls {
				if via, ok := c.spawnsUnbounded(call.Callee); ok {
					c.spawns[fn] = via
					changed = true
					break
				}
			}
		}
	}

	for _, node := range c.graph.Order {
		fn := node.Fn
		via, spawnsIt := c.spawns[fn]
		if !c.bounded[fn] && !spawnsIt {
			continue
		}
		pass.ExportObjectFact(fn, &Summary{
			BodyBounded:     c.bounded[fn],
			SpawnsUnbounded: spawnsIt,
			Via:             via,
		})
	}

	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, ug := range unbounded {
		pass.Reportf(ug.stmt.Pos(),
			"goroutine may outlive the request: no ctx.Done select, WaitGroup join, channel consumption loop, or close handoff bounds it")
	}
	// Call-site diagnostics for helpers outside the request-path scope:
	// their own go statements are never reported (wrong package), so the
	// finding surfaces where request-path code invokes them.
	for _, node := range c.graph.Order {
		du := c.defUse(node.Decl)
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := analysis.StaticCallee(c.pass.TypesInfo, call)
			if callee == nil || callee.Pkg() == nil ||
				callee.Pkg() == pass.Pkg || inScope(callee.Pkg().Path()) {
				return true
			}
			via, ok := c.spawnsUnbounded(callee)
			if !ok {
				return true
			}
			// A helper that runs a caller-supplied body is fine when the
			// body the caller hands it is itself bounded.
			for _, arg := range call.Args {
				if lit, fn := du.ResolveFunc(c.pass.TypesInfo, arg); lit != nil {
					if c.evidence(lit.Body, du, nil) {
						return true
					}
				} else if fn != nil && c.funcBounded(fn) {
					return true
				}
			}
			pass.Reportf(call.Pos(),
				"%s starts a goroutine that may outlive the request (unbounded spawn in %s)",
				qualifiedName(callee), via)
			return true
		})
	}
	return nil
}

func (c *checker) defUse(decl *ast.FuncDecl) *analysis.DefUse {
	du, ok := c.du[decl]
	if !ok {
		du = analysis.FuncDefUse(c.pass.TypesInfo, decl.Body)
		c.du[decl] = du
	}
	return du
}

// goBounded decides one go statement. enclosing is the spawning
// function's body, needed for the close-handoff rule.
func (c *checker) goBounded(g *ast.GoStmt, du *analysis.DefUse, enclosing ast.Node) bool {
	lit, fn := du.ResolveFunc(c.pass.TypesInfo, g.Call.Fun)
	switch {
	case lit != nil:
		if c.evidence(lit.Body, du, nil) {
			return true
		}
		return c.closeHandoff(lit.Body, enclosing)
	case fn != nil:
		return c.funcBounded(fn)
	}
	// Dynamic spawn (`go f()` through a parameter or field): nothing to
	// inspect, so nothing bounds it.
	return false
}

// funcBounded reports whether running fn as a goroutine body is bounded,
// consulting the local fixpoint for this package and facts for others.
// Functions outside the module's fact horizon (std, mostly) are trusted:
// the contract is about this repo's request path, and flagging every
// `go io.Copy` would bury the real findings.
func (c *checker) funcBounded(fn *types.Func) bool {
	if fn.Pkg() == c.pass.Pkg {
		return c.bounded[fn]
	}
	var s Summary
	if c.pass.ImportObjectFact(fn, &s) {
		return s.BodyBounded
	}
	return true
}

// spawnsUnbounded reports whether calling fn transitively launches an
// unbounded goroutine, and through which function.
func (c *checker) spawnsUnbounded(fn *types.Func) (string, bool) {
	if fn.Pkg() == c.pass.Pkg {
		via, ok := c.spawns[fn]
		return via, ok
	}
	var s Summary
	if c.pass.ImportObjectFact(fn, &s) && s.SpawnsUnbounded {
		return s.Via, true
	}
	return "", false
}

// evidence scans a body (nested literals included — a deferred
// `func() { wg.Done() }()` is evidence) for any of the boundedness
// signals, following calls it can resolve. seen guards func-literal
// recursion through the def-use index.
func (c *checker) evidence(body ast.Node, du *analysis.DefUse, seen map[*ast.FuncLit]bool) bool {
	if body == nil {
		return false
	}
	found := false
	analysis.WalkStack(body, func(n ast.Node, stack []ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op != token.ARROW {
				return true
			}
			if isCtxDone(c.pass.TypesInfo, n.X) {
				found = true // select/receive on ctx.Done()
				return false
			}
			for _, anc := range stack {
				if _, ok := anc.(*ast.ForStmt); ok {
					found = true // consuming a channel until it closes
					return false
				}
			}
		case *ast.RangeStmt:
			if t := c.pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := types.Unalias(t).Underlying().(*types.Chan); ok {
					found = true
					return false
				}
			}
		case *ast.CallExpr:
			if isWgDone(c.pass.TypesInfo, n) {
				found = true
				return false
			}
			if callee := analysis.StaticCallee(c.pass.TypesInfo, n); callee != nil {
				if callee.Pkg() == c.pass.Pkg {
					if c.bounded[callee] {
						found = true
						return false
					}
				} else {
					var s Summary
					if c.pass.ImportObjectFact(callee, &s) && s.BodyBounded {
						found = true
						return false
					}
				}
			} else if lit, _ := du.ResolveFunc(c.pass.TypesInfo, n.Fun); lit != nil {
				// A call through a local binding (`render := func() {...};
				// go func() { render() }()`).
				if seen == nil {
					seen = make(map[*ast.FuncLit]bool)
				}
				if !seen[lit] {
					seen[lit] = true
					if c.evidence(lit.Body, du, seen) {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

// closeHandoff reports whether body closes a channel variable that the
// enclosing (spawning) function receives from — the `done := make(chan
// struct{}); go func() { ...; close(done) }(); <-done` join idiom.
func (c *checker) closeHandoff(body, enclosing ast.Node) bool {
	closed := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "close" ||
			c.pass.TypesInfo.ObjectOf(id) != types.Universe.Lookup("close") {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil {
				closed[obj] = true
			}
		}
		return true
	})
	if len(closed) == 0 {
		return false
	}
	handoff := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		u, ok := n.(*ast.UnaryExpr)
		if !ok || u.Op != token.ARROW {
			return true
		}
		if id, ok := ast.Unparen(u.X).(*ast.Ident); ok && closed[c.pass.TypesInfo.ObjectOf(id)] {
			handoff = true
			return false
		}
		return true
	})
	return handoff
}

// isCtxDone reports whether e is a call to (context.Context).Done.
func isCtxDone(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := analysis.StaticCallee(info, call)
	return fn != nil && fn.Name() == "Done" && fn.Pkg() != nil && fn.Pkg().Path() == "context"
}

// isWgDone reports whether call is (*sync.WaitGroup).Done.
func isWgDone(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Name() != "Done" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && analysis.TypeIs(sig.Recv().Type(), "sync", "WaitGroup")
}

func qualifiedName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named, ok := analysis.NamedOf(sig.Recv().Type()); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		if i := strings.LastIndexByte(fn.Pkg().Path(), '/'); i >= 0 {
			return fn.Pkg().Path()[i+1:] + "." + name
		}
		return fn.Pkg().Path() + "." + name
	}
	return name
}
