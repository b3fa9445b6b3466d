// Package vetlite carries Nilness, a conservative nilness check and the
// one vet-style pass that `go vet` does not run. It is an honest
// stdlib-only reimplementation of the x/tools pass of the same name (see
// the internal/analysis package doc for why the original can't be
// imported), scoped to the patterns that matter here. The passes `go vet`
// already has, copylocks and unusedresult among them, are left to it: CI
// runs `go vet` with an extended -unusedresult.funcs list beside
// cmd/vmslint.
package vetlite

import (
	"go/ast"
	"go/token"
	"go/types"

	"versiondb/internal/analysis"
)

// Nilness flags uses that dereference a value inside the branch where it
// was just compared equal to nil: *x, x[i] on slices, and field access
// through a nil pointer. Method calls are not flagged (nil receivers are
// legal in Go).
var Nilness = &analysis.Analyzer{
	Name: "nilness",
	Doc:  "check for dereference of values known to be nil",
	Run:  runNilness,
}

func runNilness(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			cond, ok := ifs.Cond.(*ast.BinaryExpr)
			if !ok || (cond.Op != token.EQL && cond.Op != token.NEQ) {
				return true
			}
			id, ok := nilComparand(cond)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil {
				return true
			}
			// The branch in which the value is known nil.
			var branch ast.Stmt
			if cond.Op == token.EQL {
				branch = ifs.Body
			} else {
				branch = ifs.Else
			}
			if branch != nil {
				checkNilBranch(pass, branch, id.Name, obj)
			}
			return true
		})
	}
	return nil, nil
}

// nilComparand extracts the identifier from an `x == nil` / `nil == x`
// comparison.
func nilComparand(cond *ast.BinaryExpr) (*ast.Ident, bool) {
	x, y := ast.Unparen(cond.X), ast.Unparen(cond.Y)
	if isNil(y) {
		if id, ok := x.(*ast.Ident); ok {
			return id, true
		}
	}
	if isNil(x) {
		if id, ok := y.(*ast.Ident); ok {
			return id, true
		}
	}
	return nil, false
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// checkNilBranch walks the nil branch flagging derefs of obj until it is
// reassigned.
func checkNilBranch(pass *analysis.Pass, branch ast.Stmt, name string, obj types.Object) {
	reassigned := false
	ast.Inspect(branch, func(n ast.Node) bool {
		if reassigned {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == name {
					reassigned = true
				}
			}
		case *ast.StarExpr:
			if refersTo(pass, n.X, obj) {
				pass.Reportf(n.Pos(), "dereference of %s, which is nil here", name)
			}
		case *ast.IndexExpr:
			if refersTo(pass, n.X, obj) && indexPanicsOnNil(pass, n.X) {
				pass.Reportf(n.Pos(), "index of %s, which is nil here", name)
			}
		case *ast.SelectorExpr:
			if refersTo(pass, n.X, obj) {
				if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.FieldVal {
					if _, isPtr := types.Unalias(obj.Type()).(*types.Pointer); isPtr {
						pass.Reportf(n.Pos(), "field access through %s, which is nil here", name)
					}
				}
			}
		}
		return true
	})
}

func refersTo(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && pass.TypesInfo.Uses[id] == obj
}

// indexPanicsOnNil: indexing nil slices and arrays-via-pointer panics;
// reading a nil map does not.
func indexPanicsOnNil(pass *analysis.Pass, x ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[x]
	if !ok {
		return false
	}
	switch types.Unalias(tv.Type).Underlying().(type) {
	case *types.Slice, *types.Pointer:
		return true
	}
	return false
}
