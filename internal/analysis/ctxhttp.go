package analysis

import (
	"go/ast"
	"go/types"
)

// CtxHTTPAnalyzer flags HTTP work that ignores context propagation:
// requests built with http.NewRequest instead of NewRequestWithContext,
// the package-level http.Get/Post/PostForm/Head conveniences (and their
// *http.Client methods), and context.Background()/TODO() minted inside a
// function that already receives an *http.Request. A request without a
// context cannot be cancelled, so one slow origin pins a crawler slot
// forever; a handler that mints context.Background() detaches its
// downstream work from the client disconnect it should be observing —
// r.Context() is already there.
var CtxHTTPAnalyzer = &Analyzer{
	Name: "ctxhttp",
	Doc:  "flag HTTP requests without context and handlers ignoring r.Context()",
	Run:  runCtxHTTP,
}

// contextlessHTTP are the net/http package-level and *http.Client call
// names that hard-code context.Background under the hood.
var contextlessHTTP = map[string]bool{
	"Get":      true,
	"Post":     true,
	"PostForm": true,
	"Head":     true,
}

func runCtxHTTP(pass *Pass) {
	pass.Inspector().WithStack([]ast.Node{(*ast.CallExpr)(nil)},
		func(n ast.Node, push bool, stack []ast.Node) bool {
			if !push {
				return true
			}
			call := n.(*ast.CallExpr)
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
					switch pn.Imported().Path() {
					case "net/http":
						reportHTTPPkgCall(pass, call, sel)
						return true
					case "context":
						reportHandlerContext(pass, call, sel, stack)
						return true
					}
				}
			}
			reportClientCall(pass, call, sel)
			return true
		})
}

// reportHTTPPkgCall handles package-level net/http calls: NewRequest and
// the Get/Post/PostForm/Head conveniences.
func reportHTTPPkgCall(pass *Pass, call *ast.CallExpr, sel *ast.SelectorExpr) {
	switch {
	case sel.Sel.Name == "NewRequest":
		pass.Reportf(call.Pos(), "ctxhttp",
			"http.NewRequest builds an uncancellable request; use http.NewRequestWithContext with a caller-scoped context")
	case contextlessHTTP[sel.Sel.Name]:
		pass.Reportf(call.Pos(), "ctxhttp",
			"http.%s runs with no context and cannot be cancelled; build the request with http.NewRequestWithContext",
			sel.Sel.Name)
	}
}

// reportClientCall handles (*http.Client).Get/Post/PostForm/Head, which
// wrap NewRequest and inherit its missing context.
func reportClientCall(pass *Pass, call *ast.CallExpr, sel *ast.SelectorExpr) {
	if !contextlessHTTP[sel.Sel.Name] {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "net/http" {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isHTTPClient(sig.Recv().Type()) {
		return
	}
	pass.Reportf(call.Pos(), "ctxhttp",
		"(*http.Client).%s runs with no context and cannot be cancelled; build the request with http.NewRequestWithContext and use client.Do",
		sel.Sel.Name)
}

// reportHandlerContext flags context.Background()/TODO() minted inside a
// function that receives an *http.Request: the handler already has a
// request-scoped context and should derive from it.
func reportHandlerContext(pass *Pass, call *ast.CallExpr, sel *ast.SelectorExpr, stack []ast.Node) {
	if sel.Sel.Name != "Background" && sel.Sel.Name != "TODO" {
		return
	}
	for i := len(stack) - 2; i >= 0; i-- {
		var ft *ast.FuncType
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			ft = fn.Type
		case *ast.FuncLit:
			ft = fn.Type
		default:
			continue
		}
		if funcTakesRequest(pass, ft) {
			pass.Reportf(call.Pos(), "ctxhttp",
				"context.%s inside a function that receives *http.Request; derive from r.Context() so cancellation propagates",
				sel.Sel.Name)
			return
		}
		// Keep walking out: a FuncLit inside a handler still has the
		// request in scope one level up.
	}
}

// funcTakesRequest reports whether the function type has an *http.Request
// parameter.
func funcTakesRequest(pass *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok || tv.Type == nil {
			continue
		}
		ptr, ok := tv.Type.(*types.Pointer)
		if !ok {
			continue
		}
		if named, ok := ptr.Elem().(*types.Named); ok {
			obj := named.Obj()
			if obj.Name() == "Request" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http" {
				return true
			}
		}
	}
	return false
}

// isHTTPClient reports whether t is *net/http.Client (the method
// receiver type of the convenience calls).
func isHTTPClient(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Client" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}
