package pagequality_test

// A field nothing reads is state kept for no one: it costs a line at
// every writer and misleads a reader into looking for its use. This test
// keeps the type-checked half of the audit done: every field of every
// struct declared in non-test code under internal/ must be read by some
// non-test file outside cmd/bench, or sit on the allow-list below with
// its reason. A read is any use of the field outside a statement that
// assigns it (=, op=, ++ or --), so neither the assignment's own target,
// nor the counter of x.f++ or x.f += v, nor the running minimum of
// `if x < s.Min { s.Min = x }` counts, and a keyed composite literal only
// writes: a counter that only tests look at needs an entry. Fields of a
// struct used as a map key are read by every lookup, and an embedded
// field is read through what it promotes, so both count as read.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"pagequality/internal/analysis"
)

// loadModule type-checks the module's non-test packages once for all the
// root audits.
var loadModule = sync.OnceValues(func() ([]*analysis.Package, error) {
	return analysis.LoadModule(".", false)
})

// modulePath returns a function giving a parsed file's slash-separated
// path relative to the module root.
func modulePath(t *testing.T) func(*token.FileSet, *ast.File) string {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	return func(fset *token.FileSet, f *ast.File) string {
		r, err := filepath.Rel(root, fset.File(f.Package).Name())
		if err != nil {
			t.Fatal(err)
		}
		return filepath.ToSlash(r)
	}
}

// unreadAllowed are the fields no non-test file outside cmd/bench reads,
// and why each is still a field.
var unreadAllowed = map[string]string{
	// Test seams (ROADMAP, Audited and kept): the tests observe the
	// fault middleware and the theorems through them.
	"webserver.FaultStats.Served":      "returned by (*Faults).Stats, a test seam kept on purpose",
	"webserver.FaultStats.Errors":      "as Served",
	"webserver.FaultStats.RateLimited": "as Served",
	"webserver.FaultStats.Timeouts":    "as Served",
	"usersim.Ensemble.T":               "RunEnsemble's sample times; usersim.RunEnsemble is kept on purpose for ROADMAP item 5a",
	"usersim.Ensemble.Runs":            "as T",
	"model.LogisticFit.Rate":           "internal/model is kept on purpose (ROADMAP item 21 gives it a caller); its tests cross-check Rate·n/r against Q",
	"model.LogisticFit.RMSE":           "as Rate; the fit's goodness, which the tests bound",

	// Left for ROADMAP item 22: graph.Delta goes with ComputeIncremental,
	// and only cmd/bench still diffs graphs.
	"graph.Edge.From": "graph.Diff records its edits in Edges that only graph's Diff tests read; goes with ROADMAP item 22",
	"graph.Edge.To":   "as From; goes with ROADMAP item 22",

	// State only tests observe.
	"usersim.Sim.visits":                     "counted at every visit; only TestVisitAccounting reads it, as the ceiling on discoveries",
	"usersim.Sim.discovers":                  "counted at every first visit; only TestVisitAccounting reads it, against the count the awareness implies",
	"pagerank.AdaptiveResult.SkippedUpdates": "only TestAdaptiveActuallySkipsWork reads it, to show that the adaptive method skips frozen pages",
	"pagestore.Store.footerSegments":         "only the footer tests read it: TestOpenUsesFooters, and TestOpenMatchesLegacyScan for a store without footers",
	"pagestore.Store.scannedSegments":        "only the footer tests read it; TestOpenFooterFallback's scan check is what notices a footer accepted without its CRC",
	"pagestore.footer.dataLen":               "the footer's record-data length, checked against the footer's offset while decoding; the footer tests cut and corrupt segments at it",
}

func TestEveryFieldHasAReader(t *testing.T) {
	pkgs, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	rel := modulePath(t)

	// Declarations: every named field of every struct under internal/
	// (an embedded field has no name, so it is never audited), keyed by
	// its object, which is the origin for fields of generic types.
	decls := map[*types.Var]string{} // field -> "pkg.Type.field"
	read := map[*types.Var]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			path := rel(p.Fset, f)
			if !strings.HasPrefix(path, "internal/") {
				continue
			}
			named := map[*ast.StructType]string{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						named[st] = n.Name.Name
					}
				case *ast.StructType:
					owner, ok := named[n]
					if !ok { // an anonymous struct: name it by its line
						owner = fmt.Sprintf("%s:%d", path, p.Fset.Position(n.Pos()).Line)
					}
					for _, fl := range n.Fields.List {
						for _, name := range fl.Names {
							decls[p.Info.Defs[name].(*types.Var)] = p.Types.Name() + "." + owner + "." + name.Name
						}
					}
				}
				return true
			})
		}
	}
	if len(decls) < 300 {
		t.Fatalf("found only %d struct fields under internal/: the scan is broken", len(decls))
	}

	// Reads, from every non-test file outside the benchmark.
	markStruct := func(typ types.Type) {
		if st, ok := typ.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				read[st.Field(i).Origin()] = true
			}
		}
	}
	for _, p := range pkgs {
		field := func(e ast.Expr) *types.Var {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := p.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					return s.Obj().(*types.Var).Origin()
				}
			}
			return nil
		}
		// assigns reports whether stmt assigns field v: with =, with an
		// op= or with ++ or --.
		assigns := func(stmt ast.Node, v *types.Var) (found bool) {
			if stmt == nil {
				return false
			}
			ast.Inspect(stmt, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						found = found || field(lhs) == v
					}
				case *ast.IncDecStmt:
					found = found || field(n.X) == v
				}
				return !found
			})
			return found
		}
		for _, f := range p.Files {
			if strings.HasPrefix(rel(p.Fset, f), "cmd/bench/") {
				continue
			}
			var stack []ast.Node // the nodes enclosing the one visited
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				switch n := n.(type) {
				case *ast.MapType:
					if tv, ok := p.Info.Types[n]; ok {
						markStruct(tv.Type.(*types.Map).Key())
					}
				case *ast.SelectorExpr:
					if v := field(n); v != nil && !assigns(innermostStmt(stack), v) {
						read[v] = true
					}
				}
				stack = append(stack, n)
				return true
			})
		}
	}

	var unread []string
	hasReader := map[string]bool{} // every "pkg.Type.field" declared
	for v, name := range decls {
		hasReader[name] = read[v]
		if !read[v] && unreadAllowed[name] == "" {
			unread = append(unread, name)
		}
	}
	sort.Strings(unread)
	for _, name := range unread {
		t.Errorf("%s: no non-test file outside %s reads it — delete it, or add it to unreadAllowed with the reason", name, benchDir)
	}
	for name, reason := range unreadAllowed {
		reader, known := hasReader[name]
		switch {
		case strings.TrimSpace(reason) == "":
			t.Errorf("unreadAllowed[%q] carries no reason", name)
		case !known:
			t.Errorf("unreadAllowed[%q] names no field: delete the entry", name)
		case reader:
			t.Errorf("unreadAllowed[%q] has a reader now: delete the entry", name)
		}
	}
}

// innermostStmt returns the innermost statement on stack other than a
// block, or nil.
func innermostStmt(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(ast.Stmt); ok {
			if _, block := stack[i].(*ast.BlockStmt); !block {
				return stack[i]
			}
		}
	}
	return nil
}
