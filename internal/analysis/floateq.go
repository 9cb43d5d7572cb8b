package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEqAnalyzer flags == and != between two non-constant floating-point
// operands. Exact float equality is almost always a rounding-sensitive
// bug; the legitimate exceptions in this repo are exact-tie detection in
// rank statistics and bitwise-reproducibility checks, which must carry a
// //pqlint:allow floateq directive explaining themselves. Comparisons
// against a constant (x == 0, x != 1) are exempt: they test exact
// sentinel values, which IEEE 754 represents and propagates exactly.
var FloatEqAnalyzer = &Analyzer{
	Name: "floateq",
	Doc:  "flag ==/!= between non-constant floating-point operands",
	Run:  runFloatEq,
}

func runFloatEq(pass *Pass) {
	pass.Inspector().Preorder([]ast.Node{(*ast.BinaryExpr)(nil)}, func(n ast.Node) {
		be := n.(*ast.BinaryExpr)
		if be.Op != token.EQL && be.Op != token.NEQ {
			return
		}
		x, xok := pass.TypesInfo.Types[be.X]
		y, yok := pass.TypesInfo.Types[be.Y]
		if !xok || !yok {
			return
		}
		// A constant operand means an exact-sentinel test; skip.
		if x.Value != nil || y.Value != nil {
			return
		}
		if !isFloatTV(x) && !isFloatTV(y) {
			return
		}
		pass.Reportf(be.OpPos, "floateq",
			"%s between floating-point values; compare with a tolerance, or document exact-tie intent with //pqlint:allow floateq",
			be.Op)
	})
}

func isFloatTV(tv types.TypeAndValue) bool {
	if tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
