package pagequality_test

// An option stays when two callers set it differently; a field no caller
// sets is a constant waiting to be named. This test keeps the audit that
// rule needs from going stale: every exported field of every option
// struct under internal/ must be written by some non-test file outside
// the field's own package — a command, an experiment, the server, an
// example — or sit on the allow-list below with its reason. It reads
// syntax only (go/parser): a write is a keyed composite literal
// `pkg.Type{Field: …}` or an assignment `x.Field = …` in a file that
// imports the package.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// notKnobs are the Config/Options-named structs the audit leaves alone.
var notKnobs = map[string]string{
	"webcorpus.Config":                   "simulation model parameters: inputs to the science (ROADMAP item 5b sweeps them)",
	"usersim.Config":                     "simulation model parameters: the paper's Table 1",
	"experiments.HeadlineConfig":         "an experiment's design, set by cmd/experiments flags and the ablations",
	"experiments.PolicyComparisonConfig": "an experiment's design",
	"graph.PreferentialAttachmentConfig": "test-fixture generator, kept on purpose (ROADMAP, Audited and kept)",
	"graph.BowTieConfig":                 "test-fixture generator, kept on purpose (ROADMAP, Audited and kept)",
}

// allowed are the fields no caller outside their package writes, and why
// each is still a field.
var allowed = map[string]string{
	"crawler.Retry.Sleep": "injected clock: tests replace the backoff sleep, production leaves it nil",

	// Left for ROADMAP item 7: cmd/bench names them, and a PR that is
	// not of the benchmark archetype may not edit it.
	"corpus.Options.Workers":            "only cmd/bench sets it (worker_speedup probes); goes with ROADMAP item 7",
	"pagestore.Options.MaxSegmentBytes": "only cmd/bench sets it (1 MiB segments for its fixture); goes with ROADMAP item 7",
	"webcorpus.TextOptions.MinWords":    "every caller passes TextOptions{}, cmd/bench included, which pins the parameter; goes with ROADMAP item 7",
	"webcorpus.TextOptions.MaxWords":    "as MinWords; goes with ROADMAP item 7",
	"webcorpus.TextOptions.TopicFrac":   "as MinWords; goes with ROADMAP item 7",

	"quality.Config.ApplyTrendToDecreasing": "only cmd/bench sets it, and every constructor sets it true; goes with ROADMAP item 22",
}

// benchDir holds the one writer that does not count: the benchmark pins
// knobs to time them, it is not a caller that needs them.
const benchDir = "cmd/bench"

func isKnobStruct(name string) bool {
	return ast.IsExported(name) && (name == "Retry" || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config"))
}

// goFiles parses every non-test .go file under root, keyed by its
// slash-separated path.
func goFiles(t *testing.T, root string) map[string]*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(path)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestEveryKnobHasACaller(t *testing.T) {
	files := goFiles(t, ".")

	// Declarations: "pkg.Type.Field" for every exported field of every
	// option struct under internal/, and the packages that declare one.
	fields := map[string]bool{}      // "pkg.Type.Field"
	byField := map[string][]string{} // "pkg.Field" -> the declarations it may name
	hasKnobs := map[string]bool{}    // import path
	for path, f := range files {
		if !strings.HasPrefix(path, "internal/") {
			continue
		}
		pkg := f.Name.Name
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !isKnobStruct(ts.Name.Name) || notKnobs[pkg+"."+ts.Name.Name] != "" {
				return true
			}
			hasKnobs["pagequality/"+filepath.ToSlash(filepath.Dir(path))] = true
			for _, fl := range st.Fields.List {
				for _, name := range fl.Names {
					if name.IsExported() {
						decl := pkg + "." + ts.Name.Name + "." + name.Name
						fields[decl] = true
						byField[pkg+"."+name.Name] = append(byField[pkg+"."+name.Name], decl)
					}
				}
			}
			return true
		})
	}
	if len(fields) < 30 {
		t.Fatalf("found only %d option fields under internal/: the scan is broken", len(fields))
	}

	// Writes, from files outside the declaring package and the benchmark.
	written := map[string]bool{}
	for path, f := range files {
		if strings.HasPrefix(path, benchDir+"/") {
			continue
		}
		local := map[string]string{} // the file's name for an imported option package -> its package name
		for _, im := range f.Imports {
			imp := strings.Trim(im.Path.Value, `"`)
			if !hasKnobs[imp] || "pagequality/"+filepath.ToSlash(filepath.Dir(path)) == imp {
				continue
			}
			name := imp[strings.LastIndexByte(imp, '/')+1:]
			if im.Name != nil {
				local[im.Name.Name] = name
			} else {
				local[name] = name
			}
		}
		if len(local) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				sel, ok := n.Type.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				x, ok := sel.X.(*ast.Ident)
				if !ok || local[x.Name] == "" {
					return true
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							written[local[x.Name]+"."+sel.Sel.Name+"."+key.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				// Without types the receiver's struct is unknown: credit
				// the field name to every option struct of every imported
				// package that declares it.
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						for _, pkg := range local {
							for _, decl := range byField[pkg+"."+sel.Sel.Name] {
								written[decl] = true
							}
						}
					}
				}
			}
			return true
		})
	}

	var orphans []string
	for decl := range fields {
		if !written[decl] && allowed[decl] == "" {
			orphans = append(orphans, decl)
		}
	}
	sort.Strings(orphans)
	for _, decl := range orphans {
		t.Errorf("%s: no non-test file outside its package sets it — make it a constant, or add it to allowed with the reason", decl)
	}
	for decl, reason := range allowed {
		switch {
		case strings.TrimSpace(reason) == "":
			t.Errorf("allowed[%q] carries no reason", decl)
		case !fields[decl]:
			t.Errorf("allowed[%q] names no option field: delete the entry", decl)
		case written[decl]:
			t.Errorf("allowed[%q] has a caller now: delete the entry", decl)
		}
	}
}
