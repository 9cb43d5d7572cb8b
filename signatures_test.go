package pagequality_test

// A parameter every caller sets alike is a constant passed by hand, and
// a result no caller reads is work returned to no one (ROADMAP aim 2).
// These tests keep the signature audit from going stale: for every
// function and method declared in non-test code under internal/, they
// look at each static call site in a non-test file outside cmd/bench.
// A parameter that every site passes the same constant, or nil, must
// become a constant beside its use; a result that no site reads must go.
// Either may instead sit on an allow-list below with its reason. A
// function used as a value (a method value or expression included), a
// method an interface may dispatch (the rule reachable_test.go roots
// on), a variadic parameter and a function with no call site are out of
// scope: their call sites are not all in view, or there are none.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// constantAllowed are the parameters every audited site sets alike, and
// why each is still a parameter. An entry names "pkg.Func.param" or
// "pkg.Type.Method.param"; "pkg.*" names every parameter of the package.
var constantAllowed = map[string]string{
	"model.*": "the paper's exact model (Theorem 1, Lemma 2, §9.1), tested against its own theory at the values the experiments do not pass; ROADMAP item 21 gives it a caller",

	// The tests vary them.
	"pagestore.Store.rebuildIndex.workers":     "the scan tests vary the worker count and require the same index from each",
	"pagestore.inflate.limit":                  "the record tests pass small limits to check that a body past the limit is refused",
	"pagestore.deflater.deflate.limit":         "as inflate's limit: the prefix tests check the encoder's refusal at a small limit",
	"experiments.AblationPageRankSolver.nodes": "its test shrinks the graph to 20,000 pages so that the three solvers run in seconds",

	// cmd/bench calls them with another value, or names them with this
	// signature; they go or stay with ROADMAP items 7 and 25, which edit
	// the benchmark.
	"graph.Graph.AppendBinary.buf":           "every caller passes nil, cmd/bench too, which names the function with this signature; goes with ROADMAP item 7",
	"webcorpus.Sim.QueryVocab.wordsPerTopic": "cmd/bench draws its queries from a 40-word-per-topic vocabulary",
	"webserver.New.texts":                    "cmd/bench passes the corpus's texts; ROADMAP item 25 gives cmd/serve the text",
}

// unreadResultAllowed are the results no audited site reads, and why
// each is still returned. An entry names "pkg.Func.result#i" (i from 0),
// or "pkg.*".
var unreadResultAllowed = map[string]string{}

// signature is an audited function and what its call sites pass and
// read.
type signature struct {
	name   string // "pkg.Func" or "pkg.Type.Method"
	sig    *types.Signature
	sites  int
	args   []*types.TypeAndValue // per parameter: the constant or nil the first site passes
	varies []bool                // per parameter: two sites differ, or one passes a non-constant
	read   []bool                // per result: some site reads it
}

// auditSignatures returns the audited functions that have at least one
// static call site, keyed by name.
func auditSignatures(t *testing.T) map[string]*signature {
	t.Helper()
	pkgs, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	rel := modulePath(t)

	decls := map[*types.Func]*signature{}
	var methods []*types.Func
	for _, p := range pkgs {
		for _, f := range p.Files {
			if !strings.HasPrefix(rel(p.Fset, f), "internal/") {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				sig := fn.Type().(*types.Signature)
				name := p.Types.Name() + "." + fd.Name.Name
				if recv := sig.Recv(); recv != nil {
					name = p.Types.Name() + "." + receiverName(recv.Type()) + "." + fd.Name.Name
					methods = append(methods, fn)
				}
				decls[fn] = &signature{
					name:   name,
					sig:    sig,
					args:   make([]*types.TypeAndValue, sig.Params().Len()),
					varies: make([]bool, sig.Params().Len()),
					read:   make([]bool, sig.Results().Len()),
				}
			}
		}
	}
	if len(decls) < 400 {
		t.Fatalf("found only %d functions under internal/: the scan is broken", len(decls))
	}
	for _, m := range interfaceMethods(pkgs, methods) {
		delete(decls, m)
	}

	asValue := map[*types.Func]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			if strings.HasPrefix(rel(p.Fset, f), benchDir+"/") {
				continue
			}
			called := map[*ast.Ident]bool{} // the names in call position
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if id := calleeName(p.Info, call.Fun); id != nil {
						called[id] = true
						if s := decls[p.Info.Uses[id].(*types.Func).Origin()]; s != nil {
							s.sites++
							s.record(p.Info, call)
							s.markRead(stack, call)
						}
					}
				}
				if id, ok := n.(*ast.Ident); ok && !called[id] {
					if fn, ok := p.Info.Uses[id].(*types.Func); ok {
						asValue[fn.Origin()] = true
					}
				}
				stack = append(stack, n)
				return true
			})
		}
	}

	out := map[string]*signature{}
	for fn, s := range decls {
		if s.sites > 0 && !asValue[fn] {
			out[s.name] = s
		}
	}
	return out
}

// calleeName returns the identifier that names a call's function when
// the call is static — a function, possibly instantiated, or a method
// called on a value — or nil.
func calleeName(info *types.Info, fun ast.Expr) *ast.Ident {
	fun = ast.Unparen(fun)
	switch x := fun.(type) {
	case *ast.IndexExpr: // an instantiation f[T]
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	var id *ast.Ident
	switch x := fun.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		if s := info.Selections[x]; s != nil && s.Kind() != types.MethodVal {
			return nil // a field of func type, or a method expression
		}
		id = x.Sel
	}
	if _, ok := info.Uses[id].(*types.Func); !ok {
		return nil
	}
	return id
}

// record folds one call's arguments into what the sites pass.
func (s *signature) record(info *types.Info, call *ast.CallExpr) {
	n := len(s.args)
	if s.sig.Variadic() {
		s.varies[n-1] = true
	}
	if len(call.Args) != n && !s.sig.Variadic() || call.Ellipsis.IsValid() {
		// f(g()) spreads a tuple; f(xs...) passes a slice.
		for i := range s.varies {
			s.varies[i] = true
		}
		return
	}
	for i := 0; i < n && i < len(call.Args); i++ {
		tv := info.Types[call.Args[i]]
		switch {
		case s.varies[i]:
		case tv.Value == nil && !tv.IsNil():
			s.varies[i] = true
		case s.args[i] == nil:
			s.args[i] = &tv
		case !sameConstant(*s.args[i], tv):
			s.varies[i] = true
		}
	}
}

// sameConstant reports whether two constant or nil arguments are equal.
func sameConstant(a, b types.TypeAndValue) bool {
	if a.IsNil() || b.IsNil() {
		return a.IsNil() && b.IsNil()
	}
	x, y := a.Value, b.Value
	numeric := func(v constant.Value) bool {
		k := v.Kind()
		return k == constant.Int || k == constant.Float || k == constant.Complex
	}
	if x.Kind() != y.Kind() && !(numeric(x) && numeric(y)) {
		return false
	}
	return constant.Compare(x, token.EQL, y)
}

// markRead marks the results a call's context reads: none as a
// statement, in go or defer, the named ones when its results are
// assigned one by one, and all of them in any expression.
func (s *signature) markRead(stack []ast.Node, call *ast.CallExpr) {
	parent := ast.Node(nil)
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); !ok {
			parent = stack[i]
			break
		}
	}
	var lhs []ast.Expr
	switch p := parent.(type) {
	case *ast.ExprStmt, *ast.GoStmt, *ast.DeferStmt:
		return
	case *ast.AssignStmt:
		if len(p.Rhs) == 1 {
			lhs = p.Lhs
		}
	case *ast.ValueSpec:
		if len(p.Values) == 1 {
			for _, name := range p.Names {
				lhs = append(lhs, name)
			}
		}
	}
	for i := range s.read {
		if lhs == nil || len(lhs) != len(s.read) {
			s.read[i] = true
		} else if id, ok := lhs[i].(*ast.Ident); !ok || id.Name != "_" {
			s.read[i] = true
		}
	}
}

// slot is a parameter or a result of an audited function: its name,
// and why the audit finds it, or "".
type slot struct{ key, finding string }

func (s *signature) params() []slot {
	out := make([]slot, len(s.varies))
	for i := range out {
		out[i].key = s.name + "." + s.sig.Params().At(i).Name()
		if !s.varies[i] {
			v := "nil"
			if !s.args[i].IsNil() {
				v = s.args[i].Value.String()
			}
			out[i].finding = fmt.Sprintf("all %d call sites pass %s — make it a constant beside its use", s.sites, v)
		}
	}
	return out
}

func (s *signature) results() []slot {
	out := make([]slot, len(s.read))
	for i := range out {
		out[i].key = fmt.Sprintf("%s.result#%d", s.name, i)
		if !s.read[i] {
			out[i].finding = fmt.Sprintf("none of the %d call sites reads it (%s) — stop returning it", s.sites, s.sig.Results().At(i).Type())
		}
	}
	return out
}

// auditSlots fails every finding among the slots of the audited
// functions that allow does not cover, and every entry of allow that
// carries no reason, names no slot, or covers no finding.
func auditSlots(t *testing.T, listName string, allow map[string]string, slots func(*signature) []slot) {
	t.Helper()
	known := map[string]bool{} // every entry that names a slot
	used := map[string]bool{}  // every entry that covers a finding
	var found []string
	for _, s := range auditSignatures(t) {
		for _, sl := range slots(s) {
			entry := ""
			if _, ok := allow[sl.key]; ok {
				entry = sl.key
			} else if pkg, _, _ := strings.Cut(sl.key, "."); allow[pkg+".*"] != "" {
				entry = pkg + ".*"
			}
			known[entry] = true
			switch {
			case sl.finding == "":
			case entry != "":
				used[entry] = true
			default:
				found = append(found, sl.key+": "+sl.finding)
			}
		}
	}
	sort.Strings(found)
	for _, msg := range found {
		t.Errorf("%s, or add it to %s with the reason", msg, listName)
	}
	var entries []string
	for entry := range allow {
		entries = append(entries, entry)
	}
	sort.Strings(entries)
	for _, entry := range entries {
		switch {
		case strings.TrimSpace(allow[entry]) == "":
			t.Errorf("%s[%q] carries no reason", listName, entry)
		case !known[entry]:
			t.Errorf("%s[%q] names nothing with a call site: delete the entry", listName, entry)
		case !used[entry]:
			t.Errorf("%s[%q] names nothing that is still a finding: delete the entry", listName, entry)
		}
	}
}

func TestEveryParameterVaries(t *testing.T) {
	auditSlots(t, "constantAllowed", constantAllowed, (*signature).params)
}

func TestEveryResultIsRead(t *testing.T) {
	auditSlots(t, "unreadResultAllowed", unreadResultAllowed, (*signature).results)
}
