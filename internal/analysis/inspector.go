package analysis

import (
	"go/ast"
	"reflect"
)

// Inspector is the traversal every rule filters: ast.Inspect over the
// package's files, narrowed to the node types the rule asks for. Each
// call is its own walk; at nine rules on this module that is a few
// milliseconds, less than recording the walk once costs to keep.
type Inspector struct {
	files []*ast.File
}

// wanted returns the filter for the example nodes in types: a node
// matches when its dynamic type is that of one of them, and every node
// matches when types is empty.
func wanted(types []ast.Node) func(ast.Node) bool {
	if len(types) == 0 {
		return func(ast.Node) bool { return true }
	}
	set := make(map[reflect.Type]bool, len(types))
	for _, n := range types {
		set[reflect.TypeOf(n)] = true
	}
	return func(n ast.Node) bool { return set[reflect.TypeOf(n)] }
}

// Preorder calls f for every node whose type matches one of the example
// nodes in types (all nodes when types is empty), in depth-first source
// order.
func (in *Inspector) Preorder(types []ast.Node, f func(ast.Node)) {
	want := wanted(types)
	for _, file := range in.files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n != nil && want(n) {
				f(n)
			}
			return true
		})
	}
}

// WithStack is Preorder with the enclosing-node stack (outermost first,
// ending in the matched node itself) and push/pop visibility. Returning
// false from a push visit skips the node's subtree (its pop visit still
// fires).
func (in *Inspector) WithStack(types []ast.Node, f func(n ast.Node, push bool, stack []ast.Node) bool) {
	want := wanted(types)
	var stack []ast.Node
	for _, file := range in.files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n != nil {
				stack = append(stack, n)
				if !want(n) || f(n, true, stack) {
					return true
				}
				// Pruned: ast.Inspect sends no nil for n, so pop it here.
			}
			if top := stack[len(stack)-1]; want(top) {
				f(top, false, stack)
			}
			stack = stack[:len(stack)-1]
			return false
		})
	}
}
