package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetRangeAnalyzer flags map iterations that leak Go's randomized map
// order into observable results: bodies that append to a slice (unless a
// sort call follows later in the same function), write ordered output
// (fmt printing, Write/WriteString-style sinks, string concatenation),
// or accumulate floating-point sums (float addition is not associative,
// so the iteration order changes the bits of the result).
var DetRangeAnalyzer = &Analyzer{
	Name: "detrange",
	Doc:  "flag map iteration whose order leaks into ordered or float-accumulated output",
	Run:  runDetRange,
}

func runDetRange(pass *Pass) {
	pass.Inspector().WithStack([]ast.Node{(*ast.RangeStmt)(nil)},
		func(n ast.Node, push bool, stack []ast.Node) bool {
			if !push {
				return true
			}
			rng := n.(*ast.RangeStmt)
			if !isMapType(pass, rng.X) {
				return true
			}
			// The innermost enclosing function gives the post-loop sort
			// check its scope to search.
			body, _ := enclosingFunc(stack)
			checkMapRange(pass, rng, body)
			return true
		})
}

func isMapType(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRange inspects one map-range body for order leaks. Writes
// whose target is indexed by the range key itself (m2[k] = ..., or
// lists[k] = append(lists[k], ...)) happen exactly once per key and are
// therefore order-independent; those are skipped.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, body *ast.BlockStmt) {
	key := rangeKeyObject(pass, rng)
	var appendPos []token.Pos
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// Nested ranges are visited on their own; their bodies still
			// execute in this map's order, so keep descending.
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range n.Lhs {
					if indexedByKey(pass, lhs, key) {
						continue
					}
					info := basicInfo(pass.TypesInfo.Types[lhs])
					if info&types.IsFloat != 0 {
						pass.Reportf(n.Pos(), "detrange",
							"float accumulation inside map iteration: result bits depend on map order; iterate sorted keys")
					} else if n.Tok == token.ADD_ASSIGN && info&types.IsString != 0 {
						pass.Reportf(n.Pos(), "detrange",
							"string concatenation inside map iteration: output order depends on map order; iterate sorted keys")
					}
				}
			case token.ASSIGN, token.DEFINE:
				if len(n.Rhs) == 1 && len(n.Lhs) >= 1 && !indexedByKey(pass, n.Lhs[0], key) {
					if call, ok := n.Rhs[0].(*ast.CallExpr); ok && isBuiltinAppend(pass, call) {
						appendPos = append(appendPos, n.Pos())
					}
				}
			}
		case *ast.CallExpr:
			if name, ok := orderedOutputCall(pass, n); ok {
				pass.Reportf(n.Pos(), "detrange",
					"%s inside map iteration emits output in map order; iterate sorted keys", name)
			}
		}
		return true
	})
	if len(appendPos) == 0 {
		return
	}
	// An append is fine if the function sorts something afterwards — the
	// canonical collect-keys-then-sort pattern.
	if sortCallAfter(pass, body, rng.End()) {
		return
	}
	for _, pos := range appendPos {
		pass.Reportf(pos, "detrange",
			"append inside map iteration with no later sort in this function: slice order depends on map order")
	}
}

// rangeKeyObject resolves the types.Object of the range statement's key
// variable, for both := and = forms.
func rangeKeyObject(pass *Pass, rng *ast.RangeStmt) types.Object {
	id, ok := rng.Key.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// indexedByKey reports whether e is an index expression whose index is
// exactly the range key variable.
func indexedByKey(pass *Pass, e ast.Expr, key types.Object) bool {
	if key == nil {
		return false
	}
	ie, ok := e.(*ast.IndexExpr)
	if !ok {
		return false
	}
	id, ok := ie.Index.(*ast.Ident)
	if !ok {
		return false
	}
	return pass.TypesInfo.Uses[id] == key
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

// orderedOutputWriters are method names that emit to an ordered sink.
var orderedOutputWriters = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
}

// orderedOutputCall reports whether call writes ordered output: an
// fmt.Print*/Fprint* call or a Write*-style method call.
func orderedOutputCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	switch pass.pkgOf(sel) {
	case "":
		// Method call on some value: Write*-style names are sinks.
		if orderedOutputWriters[name] {
			return "." + name, true
		}
	case "fmt":
		if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") {
			return "fmt." + name, true
		}
	}
	return "", false
}

// sortFuncs are the package sort functions that sort their argument in
// place; slices sorts with every function named Sort*.
var sortFuncs = map[string]bool{
	"Sort":        true,
	"Stable":      true,
	"Slice":       true,
	"SliceStable": true,
	"Strings":     true,
	"Ints":        true,
	"Float64s":    true,
}

// sortCallAfter reports whether a sorting call — sort.Sort/Stable/Slice/
// SliceStable/Strings/Ints/Float64s, slices.Sort*, or a .Sort() method —
// occurs after pos within body. Other calls into sort and slices
// (sort.SearchStrings, slices.Contains) order nothing.
func sortCallAfter(pass *Pass, body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		switch pass.pkgOf(sel) {
		case "":
			found = name == "Sort"
		case "sort":
			found = sortFuncs[name]
		case "slices":
			found = strings.HasPrefix(name, "Sort")
		}
		return true
	})
	return found
}
