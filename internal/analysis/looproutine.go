package analysis

import (
	"go/ast"
	"go/token"
)

// LoopRoutineAnalyzer flags goroutines launched inside a loop with no
// visible join in the enclosing function. A `go` per iteration with
// nothing bounding it is how a worker pool degrades into an unbounded
// fork bomb under load — every launch site in the serving and crawl
// stacks must be tied to a WaitGroup, an errgroup-style Wait, or a
// semaphore/result channel the function drains. The check is a
// heuristic: any `.Wait()` call or channel receive in the enclosing
// function counts as the join; sites that coordinate through some other
// mechanism document themselves with //pqlint:allow looproutine.
var LoopRoutineAnalyzer = &Analyzer{
	Name: "looproutine",
	Doc:  "flag goroutines launched in a loop with no WaitGroup/errgroup/channel join in scope",
	Run:  runLoopRoutine,
}

func runLoopRoutine(pass *Pass) {
	pass.Inspector().WithStack([]ast.Node{(*ast.GoStmt)(nil)},
		func(n ast.Node, push bool, stack []ast.Node) bool {
			if !push {
				return true
			}
			// Find the innermost enclosing function and whether a loop
			// sits between it and the go statement.
			var encl ast.Node
			inLoop := false
			for i := len(stack) - 2; i >= 0 && encl == nil; i-- {
				switch stack[i].(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					inLoop = true
				case *ast.FuncDecl, *ast.FuncLit:
					encl = stack[i]
				}
			}
			if !inLoop || encl == nil {
				return true
			}
			if hasJoin(childBody(encl)) {
				return true
			}
			pass.Reportf(n.Pos(), "looproutine",
				"goroutine launched in a loop with no join in the enclosing function (no .Wait() call or channel receive); bound it with a WaitGroup or semaphore")
			return true
		})
}

// hasJoin reports whether body contains anything that waits on other
// goroutines: a `.Wait()` method call (sync.WaitGroup, errgroup) or a
// channel receive (result drain or semaphore).
func hasJoin(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				found = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		}
		return !found
	})
	return found
}
