package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// AtomicMixAnalyzer flags variables and struct fields that are accessed
// through sync/atomic in one place and by plain read/write in another.
// Mixing the two is the classic "mostly atomic" race: the plain access
// compiles, usually works, and tears or reorders under contention in
// exactly the way -race only catches when the interleaving happens to
// fire in CI. Within a package, an address that ever flows into
// atomic.Load/Store/Add/Swap/CompareAndSwap must be accessed atomically
// everywhere; intentional exceptions (single-threaded init before any
// goroutine starts) document themselves with //pqlint:allow atomicmix.
var AtomicMixAnalyzer = &Analyzer{
	Name: "atomicmix",
	Doc:  "flag fields accessed via sync/atomic in one place and plain loads/stores elsewhere",
	Run:  runAtomicMix,
}

// atomicOpPrefixes are the sync/atomic function-name prefixes whose first
// argument is the address of the shared word.
var atomicOpPrefixes = []string{"Load", "Store", "Add", "Swap", "CompareAndSwap"}

func runAtomicMix(pass *Pass) {
	// First sweep: find every `atomic.Op(&x.f, ...)` call, remember the
	// object behind x.f, and mark the identifiers inside the atomic call
	// itself as sanctioned.
	tracked := make(map[types.Object]string) // object -> atomic op seen
	sanctioned := make(map[*ast.Ident]bool)
	pass.Inspector().Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		op, ok := atomicCall(pass, call)
		if !ok || len(call.Args) == 0 {
			return
		}
		addr, ok := call.Args[0].(*ast.UnaryExpr)
		if !ok {
			return
		}
		id := targetIdent(addr.X)
		if id == nil {
			return
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return
		}
		if _, seen := tracked[obj]; !seen {
			tracked[obj] = op
		}
		// Every mention of the word inside this call is atomic by
		// definition (the &x.f argument itself).
		ast.Inspect(call, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				sanctioned[id] = true
			}
			return true
		})
	})
	if len(tracked) == 0 {
		return
	}
	// Second sweep: any other use of a tracked object is a plain access.
	// Taking the address again (&x.f passed to a helper) counts too: the
	// helper may do anything with it, and the report points the reader at
	// the mixing site either way.
	pass.Inspector().Preorder([]ast.Node{(*ast.Ident)(nil)}, func(n ast.Node) {
		id := n.(*ast.Ident)
		if sanctioned[id] {
			return
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return
		}
		op, ok := tracked[obj]
		if !ok {
			return
		}
		pass.Reportf(id.Pos(), "atomicmix",
			"%s is accessed with sync/atomic (atomic.%s) elsewhere in this package but plainly here; make every access atomic or //pqlint:allow atomicmix",
			id.Name, op)
	})
}

// atomicCall reports whether call is a sync/atomic operation taking an
// address as its first argument, returning the function name.
func atomicCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "sync/atomic" {
		return "", false
	}
	for _, prefix := range atomicOpPrefixes {
		if strings.HasPrefix(sel.Sel.Name, prefix) {
			return sel.Sel.Name, true
		}
	}
	return "", false
}

// targetIdent extracts the identifier naming the shared word from the
// operand of &: the field selector's Sel for &x.f, the ident itself for
// &v. Index expressions (&xs[i]) have no single object to track.
func targetIdent(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.ParenExpr:
		return targetIdent(e.X)
	}
	return nil
}
