package analysis

import (
	"go/ast"
	"go/types"
)

// DefUse is a lightweight per-function def-use index: for every local
// variable it records the value expressions assigned to it (from := and =
// and var declarations with initializers). It deliberately ignores
// aliasing through pointers and container stores — it answers "what
// expressions flow into this variable" for the straight-line idiom
// hotalloc cares about (a slice made with or without capacity), not
// general dataflow.
type DefUse struct {
	values map[types.Object][]ast.Expr
}

// FuncDefUse builds the def-use index for one function body (or any
// subtree). info must cover the subtree.
func FuncDefUse(info *types.Info, body ast.Node) *DefUse {
	d := &DefUse{values: make(map[types.Object][]ast.Expr)}
	if body == nil {
		return d
	}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return
		}
		d.values[obj] = append(d.values[obj], rhs)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			} else if len(n.Rhs) == 1 {
				// Multi-value assignment: every LHS flows from the call.
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[0])
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == len(n.Names) {
				for i, name := range n.Names {
					record(name, n.Values[i])
				}
			} else if len(n.Values) == 1 {
				for _, name := range n.Names {
					record(name, n.Values[0])
				}
			}
			// A spec with no values is a zero-value declaration: the
			// variable has an entry with no value expressions, which
			// ValuesOf distinguishes from "never seen".
			for _, name := range n.Names {
				if len(n.Values) == 0 {
					obj := info.ObjectOf(name)
					if obj != nil {
						if _, seen := d.values[obj]; !seen {
							d.values[obj] = nil
						}
					}
				}
			}
		case *ast.RangeStmt:
			if n.Key != nil {
				record(n.Key, n.X)
			}
			if n.Value != nil {
				record(n.Value, n.X)
			}
		}
		return true
	})
	return d
}

// ValuesOf returns the value expressions assigned to obj within the
// indexed subtree, and whether obj was declared there at all.
func (d *DefUse) ValuesOf(obj types.Object) ([]ast.Expr, bool) {
	vals, ok := d.values[obj]
	return vals, ok
}
