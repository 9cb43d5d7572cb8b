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
			switch pass.pkgOf(sel) {
			case "net/http":
				reportHTTPPkgCall(pass, call, sel)
			case "context":
				reportHandlerContext(pass, call, sel, stack)
			default:
				reportClientCall(pass, call, sel)
			}
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
	if !ok || sig.Recv() == nil || !isHTTPPointer(sig.Recv().Type(), "Client") {
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
		if isHTTPPointer(pass.TypesInfo.Types[field.Type].Type, "Request") {
			return true
		}
	}
	return false
}

// isHTTPPointer reports whether t is a pointer to the net/http type name
// (*http.Client, the convenience calls' receiver; *http.Request). A nil t,
// from an expression with no recorded type, is not.
func isHTTPPointer(t types.Type, name string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}
