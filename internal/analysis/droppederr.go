package analysis

import (
	"go/ast"
	"go/types"
)

// DroppedErrAnalyzer flags silently discarded errors and dead blank
// assignments: `_ = f()` / `x, _ := f()` where the blanked value is an
// error, `_ = err` re-discards, and placeholder statements like `_ = v`
// that exist only to silence the compiler. Errors in this pipeline guard
// numerical preconditions (convergence, alignment, fit shape); dropping
// one turns a loud failure into a silently wrong figure.
var DroppedErrAnalyzer = &Analyzer{
	Name: "droppederr",
	Doc:  "flag blank-discarded errors and dead `_ = x` assignments",
	Run:  runDroppedErr,
}

func runDroppedErr(pass *Pass) {
	errType := types.Universe.Lookup("error").Type()
	pass.Inspector().Preorder([]ast.Node{(*ast.AssignStmt)(nil)}, func(n ast.Node) {
		as := n.(*ast.AssignStmt)
		checkDroppedErr(pass, as, errType)
	})
}

func checkDroppedErr(pass *Pass, as *ast.AssignStmt, errType types.Type) {
	// Multi-value form: x, _ := f() — check each blanked slot against
	// the call's result tuple.
	if len(as.Lhs) > 1 && len(as.Rhs) == 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return // comma-ok forms (map index, type assert, recv)
		}
		tv, ok := pass.TypesInfo.Types[call]
		if !ok || tv.Type == nil {
			return
		}
		tuple, ok := tv.Type.(*types.Tuple)
		if !ok || tuple.Len() != len(as.Lhs) {
			return
		}
		for i, lhs := range as.Lhs {
			if !isBlank(lhs) {
				continue
			}
			if types.Identical(tuple.At(i).Type(), errType) {
				pass.Reportf(lhs.Pos(), "droppederr",
					"result %d of %s is an error discarded with _; handle it or //pqlint:allow droppederr",
					i+1, callName(call))
			}
		}
		return
	}
	// Single form: _ = <expr>.
	if len(as.Lhs) == 1 && len(as.Rhs) == 1 && isBlank(as.Lhs[0]) {
		rhs := as.Rhs[0]
		tv, ok := pass.TypesInfo.Types[rhs]
		if ok && tv.Type != nil && types.Identical(tv.Type, errType) {
			pass.Reportf(as.Pos(), "droppederr",
				"error discarded with _ = ...; handle it or //pqlint:allow droppederr")
			return
		}
		if sideEffectFree(rhs) {
			pass.Reportf(as.Pos(), "droppederr",
				"dead assignment: _ = %s has no effect; delete it", exprString(rhs))
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// sideEffectFree reports whether evaluating e cannot do anything: bare
// identifiers, selectors, literals, and index expressions thereof. A
// call (or anything containing one) may be intentional.
func sideEffectFree(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident, *ast.BasicLit:
		return true
	case *ast.SelectorExpr:
		return sideEffectFree(e.X)
	case *ast.IndexExpr:
		return sideEffectFree(e.X) && sideEffectFree(e.Index)
	case *ast.ParenExpr:
		return sideEffectFree(e.X)
	case *ast.StarExpr:
		return sideEffectFree(e.X)
	}
	return false
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "..."
}

func callName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return exprString(f)
	}
	return "call"
}
