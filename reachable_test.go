package pagequality_test

// A function nothing calls is code kept for no one (ROADMAP aim 2). This
// test keeps the reachability audit from going stale: every function and
// method declared in non-test code under internal/ must be reachable
// from the program, or sit on the allow-list below with its reason. The
// roots are every function a non-test file outside internal/ and
// cmd/bench names (the commands), every function named in a
// package-level declaration (a var initializer runs whether or not
// anything calls it), every init, and every method whose receiver, or a
// pointer to it, implements an interface that has a method of that name:
// such a method may be called through the interface, which this test
// does not trace. From the roots, a function reaches every function its
// body names (a call, a method value, a function passed as a value), and
// a function naming itself does not count.

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
	"strings"
	"testing"

	"pagequality/internal/analysis"
)

// unreachedAllowed are the functions under internal/ that no command
// reaches, and why each is still there. An entry "pkg.*" names every
// function of the package.
var unreachedAllowed = map[string]string{
	// Kept on purpose.
	"pagerank.ComputeReference": "the power-iteration oracle the kernel tests check Compute against",
	"model.*":                   "the paper's exact model (Theorem 1, Lemma 2, §9.1), tested against its own theory; ROADMAP item 21 gives it a caller",
	"usersim.RunEnsemble":       "the ensemble of user-visit runs ROADMAP item 5a reports on",
	"graph.GenerateBowTie":      "a graph fixture: the graph, pagerank and cmd/analyze tests build their graphs with it",
	"graph.GenerateCopyModel":   "as GenerateBowTie",
	"graph.GenerateUniform":     "as GenerateBowTie",
	"analysis.LoadDir":          "the pqlint rule tests load their testdata packages with it",
	"loadgen.Hist.Count":        "the histogram's summary API that ROADMAP item 3 builds on; the histogram tests check it",
	"loadgen.Hist.Mean":         "as Count",
	"loadgen.Hist.Merge":        "as Count",
	"webcorpus.Sim.BirthPage":   "the rising-star Example and the corpus tests inject pages through it",
	"graph.Graph.Validate":      "the graph invariants the graph, snapshot and fuzz tests check every built graph against",
	"quality.DefaultConfig":     "the paper's C = 0.1 settings; ROADMAP item 5d decides whether it labels the paper-protocol row or goes",
	"pagestore.Store.Get":       "the store's point read: cmd/bench's ingest check and about 30 test call sites read single records with it",

	// Test seams: the tests observe or steer the running system through
	// them.
	"webserver.Server.SetRobots": "a test seam: the crawler and cmd/crawl tests serve a robots.txt through it",
	"webserver.Faults.Stats":     "a test seam: the fault tests count what the middleware injected",
	"graph.Graph.SetPage":        "a test seam: the graph and snapshot tests edit a page's attributes in place",
	"usersim.Sim.Awareness":      "a test seam: the usersim tests read the population's awareness",
	"webcorpus.Sim.Time":         "a test seam: the corpus tests read the simulation clock",
	"webcorpus.Sim.RefreshStats": "a test seam: the search-refresh tests count refreshes and analysed documents",

	// Only cmd/bench calls these, or only its README names them; they go
	// or gain a caller with ROADMAP items 22, 7b and 25, which edit the
	// benchmark.
	"pagerank.ComputeIncremental":       "only cmd/bench's replay calls it; goes with ROADMAP item 22",
	"graph.Diff":                        "only cmd/bench's replay calls it; goes with ROADMAP item 22",
	"graph.Delta.NumChanges":            "only cmd/bench's replay and the Diff tests read it; goes with ROADMAP item 22",
	"search.Index.Shard":                "only cmd/bench builds a sharded view; goes with ROADMAP item 22",
	"search.ShardedIndex.SearchContext": "only cmd/bench searches a sharded view; goes with ROADMAP item 22",
	"search.Index.AddAll":               "only cmd/bench adds whole texts to an index, through it and Index.Add, which it calls; goes with ROADMAP item 7b",
	"snapshot.Aligned.CSRs":             "only cmd/bench's replay reads the aligned graphs; goes with ROADMAP item 7b",
	"webcorpus.Sim.AllTexts":            "only cmd/bench and the text-bearing test fixtures render the corpus's texts; ROADMAP item 25 gives cmd/serve the text",
	"pagestore.Store.Len":               "only cmd/bench's ingest check counts the archive; goes or gains a caller with ROADMAP item 7b",
	"pagestore.Store.Sync":              "only cmd/bench's ingest syncs the archive before it reads it back; goes or gains a caller with ROADMAP item 7b",
	"pagestore.Store.ReadLive":          "only cmd/bench's ingest check reads segments back inflated; goes or gains a caller with ROADMAP item 7b",
}

func TestEveryFunctionIsReachable(t *testing.T) {
	pkgs, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	rel := modulePath(t)

	var funcs []*types.Func           // audited, in declaration order
	decls := map[*types.Func]string{} // audited function -> "pkg.Func" or "pkg.Type.Method"
	calls := map[*types.Func][]*types.Func{}
	var roots []*types.Func
	// names appends the functions referenced inside n to out, each by
	// its generic origin.
	names := func(info *types.Info, n ast.Node, out []*types.Func) []*types.Func {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := info.Uses[id].(*types.Func); ok {
					out = append(out, fn.Origin())
				}
			}
			return true
		})
		return out
	}
	var methods []*types.Func // audited methods, for the interface roots
	for _, p := range pkgs {
		for _, f := range p.Files {
			path := rel(p.Fset, f)
			if strings.HasPrefix(path, benchDir+"/") {
				continue
			}
			if !strings.HasPrefix(path, "internal/") {
				roots = names(p.Info, f, roots)
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					roots = names(p.Info, d, roots)
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				name := p.Types.Name() + "." + fd.Name.Name
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					name = p.Types.Name() + "." + receiverName(recv.Type()) + "." + fd.Name.Name
					methods = append(methods, fn)
				}
				funcs = append(funcs, fn)
				decls[fn] = name
				if fd.Name.Name == "init" && fd.Recv == nil {
					roots = append(roots, fn)
				}
				for _, callee := range names(p.Info, fd.Body, nil) {
					if callee != fn {
						calls[fn] = append(calls[fn], callee)
					}
				}
			}
		}
	}
	if len(decls) < 400 {
		t.Fatalf("found only %d functions under internal/: the scan is broken", len(decls))
	}
	roots = append(roots, interfaceMethods(pkgs, methods)...)

	// reach returns the functions reachable from roots.
	reach := func(roots []*types.Func) map[*types.Func]bool {
		seen := map[*types.Func]bool{}
		for stack := slices.Clone(roots); len(stack) > 0; {
			fn := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !seen[fn] {
				seen[fn] = true
				stack = append(stack, calls[fn]...)
			}
		}
		return seen
	}
	// named[i] are the audited functions entries[i] names; the entries
	// are sorted so that the failures print in order.
	var entries []string
	for entry := range unreachedAllowed {
		entries = append(entries, entry)
	}
	sort.Strings(entries)
	named := make([][]*types.Func, len(entries))
	all := slices.Clip(roots)
	for i, entry := range entries {
		pkg, isPkg := strings.CutSuffix(entry, ".*")
		for _, fn := range funcs {
			if decls[fn] == entry || isPkg && strings.HasPrefix(decls[fn], pkg+".") {
				named[i] = append(named[i], fn)
			}
		}
		all = append(all, named[i]...)
	}

	reached := reach(all)
	var unreached []string
	for fn, name := range decls {
		if !reached[fn] {
			unreached = append(unreached, name)
		}
	}
	sort.Strings(unreached)
	for _, name := range unreached {
		t.Errorf("%s: nothing outside tests and %s reaches it — delete it, or add it to unreachedAllowed with the reason", name, benchDir)
	}
	for i, entry := range entries {
		if strings.TrimSpace(unreachedAllowed[entry]) == "" {
			t.Errorf("unreachedAllowed[%q] carries no reason", entry)
		}
		if len(named[i]) == 0 {
			t.Errorf("unreachedAllowed[%q] names no function under internal/: delete the entry", entry)
			continue
		}
		// The entry is needed if one of its functions is reached only
		// through it.
		others := slices.Clip(roots)
		for j := range entries {
			if j != i {
				others = append(others, named[j]...)
			}
		}
		without := reach(others)
		if !slices.ContainsFunc(named[i], func(fn *types.Func) bool { return !without[fn] }) {
			t.Errorf("unreachedAllowed[%q] is reached without the entry: delete the entry", entry)
		}
	}
}

// receiverName is the name of a method's receiver type, without its
// pointer or type arguments.
func receiverName(recv types.Type) string {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	return recv.(*types.Named).Obj().Name()
}

// interfaceMethods returns the methods among methods whose receiver type,
// or a pointer to it, implements an interface, declared in a loaded
// package or in a package they import, that has a method of the same
// name.
func interfaceMethods(pkgs []*analysis.Package, methods []*types.Func) []*types.Func {
	byName := map[string][]*types.Interface{}
	addScope := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				byName[iface.Method(i).Name()] = append(byName[iface.Method(i).Name()], iface)
			}
		}
	}
	addScope(types.Universe)
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		addScope(p.Scope())
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}

	var out []*types.Func
	for _, m := range methods {
		recv := m.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for _, iface := range byName[m.Name()] {
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				out = append(out, m)
				break
			}
		}
	}
	return out
}
