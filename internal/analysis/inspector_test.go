package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"
)

// TestWithStackPrunedNodeStillPops pins the one behaviour WithStack adds
// on top of ast.Inspect: a false return from a push visit skips the
// node's subtree, and the node's pop visit is still delivered — with the
// node on top of the stack, and the stack unwound afterwards.
func TestWithStackPrunedNodeStillPops(t *testing.T) {
	const src = `package p

func outer() {
	func() { inner() }()
	after()
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	in := &Inspector{files: []*ast.File{f}}

	var got []string
	in.WithStack([]ast.Node{(*ast.FuncLit)(nil), (*ast.CallExpr)(nil)},
		func(n ast.Node, push bool, stack []ast.Node) bool {
			if stack[len(stack)-1] != n {
				t.Errorf("stack does not end in the visited node %T", n)
			}
			name := "lit"
			if call, ok := n.(*ast.CallExpr); ok {
				name = "call"
				if id, ok := call.Fun.(*ast.Ident); ok {
					name = id.Name
				}
			}
			got = append(got, fmt.Sprintf("%s push=%t depth=%d", name, push, len(stack)))
			_, isLit := n.(*ast.FuncLit)
			return !isLit // prune the literal's body: inner() must not be visited
		})
	want := []string{
		"call push=true depth=5", // File > FuncDecl > BlockStmt > ExprStmt > CallExpr
		"lit push=true depth=6",
		"lit push=false depth=6",
		"call push=false depth=5",
		"after push=true depth=5",
		"after push=false depth=5",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("visits:\n got %q\nwant %q", got, want)
	}

	var calls int
	in.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(ast.Node) { calls++ })
	if calls != 3 {
		t.Errorf("Preorder saw %d calls, want 3 (it never prunes)", calls)
	}
}
