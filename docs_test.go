package pagequality_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citingDocs are the documents whose citations of the tree must resolve.
var citingDocs = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"PAPER.md",
	".claude/skills/verify/SKILL.md",
	"cmd/bench/README.md",
}

// citedPath matches a repository path such as `internal/search/sharded.go`,
// `./cmd/experiments` or `internal/webcorpus.Schedule`; a path glued to
// an import-path prefix (`pagequality/internal/…`) is not one.
var citedPath = regexp.MustCompile(`(?:^|[^\w/.-])(?:\./)?((?:internal|cmd|examples)/[\w./-]*)`)

// TestDocsCitePathsThatExist fails on a document that names a package,
// command or file the tree no longer has. In the `pkg.Ident` form only
// the package directory must exist here; TestDocsCiteIdentifiersThatExist
// checks the identifier.
func TestDocsCitePathsThatExist(t *testing.T) {
	cited := 0
	for _, doc := range citingDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(data), "\n") {
			for _, m := range citedPath.FindAllStringSubmatch(line, -1) {
				cited++
				p := strings.TrimRight(m[1], "./-")
				if _, err := os.Stat(p); err == nil {
					continue
				}
				dir, base := path.Split(p)
				if i := strings.IndexByte(base, '.'); i > 0 {
					if _, err := os.Stat(dir + base[:i]); err == nil {
						continue
					}
				}
				t.Errorf("%s:%d cites %s, which does not exist", doc, n+1, m[1])
			}
		}
	}
	if cited < 100 {
		t.Fatalf("found only %d cited paths: the scan is broken", cited)
	}
}

// backticked matches a fenced block or an inline code span; testName a
// test, benchmark, fuzz target or example name inside one, and testFunc
// its declaration.
var (
	backticked = regexp.MustCompile("(?s)```.*?```|`[^`]*`")
	testName   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z_]\w*`)
	testFunc   = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
)

// TestDocsCiteTestsThatExist fails on a document that names, in
// backticks, a Test, Benchmark, Fuzz or Example function that no
// _test.go file in the tree declares.
func TestDocsCiteTestsThatExist(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(p, "_test.go") {
			return err
		}
		data, err := os.ReadFile(p)
		for _, m := range testFunc.FindAllSubmatch(data, -1) {
			declared[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := 0
	for _, doc := range citingDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, span := range backticked.FindAllStringIndex(text, -1) {
			for _, name := range testName.FindAllString(text[span[0]:span[1]], -1) {
				cited++
				if !declared[name] {
					t.Errorf("%s:%d cites %s, which no _test.go file declares",
						doc, strings.Count(text[:span[0]], "\n")+1, name)
				}
			}
		}
	}
	if cited < 50 {
		t.Fatalf("found only %d cited test names: the scan is broken", cited)
	}
}

// metricName matches a `layer.snake_name` citation such as
// `search.query_us_cold`; one glued to a path or identifier is not one.
var metricName = regexp.MustCompile(`(?:^|[^\w/.-])([a-z]+)\.([a-z][a-z0-9_]*)\b`)

// TestDocsCiteMetricsThatExist fails on a document that names, in
// backticks, a metric of a layer BENCHMARK.json measures that
// BENCHMARK.json does not declare. A Go file name (`search.go`) is not a
// metric.
func TestDocsCiteMetricsThatExist(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	declared, layers := map[string]bool{}, map[string]bool{}
	for _, m := range bench.PerLayer {
		declared[m.Name] = true
		layer, _, _ := strings.Cut(m.Name, ".")
		layers[layer] = true
	}
	cited := 0
	for _, doc := range citingDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, span := range backticked.FindAllStringIndex(text, -1) {
			for _, m := range metricName.FindAllStringSubmatch(text[span[0]:span[1]], -1) {
				if !layers[m[1]] || m[2] == "go" {
					continue
				}
				cited++
				if name := m[1] + "." + m[2]; !declared[name] {
					t.Errorf("%s:%d cites %s, which BENCHMARK.json does not declare",
						doc, strings.Count(text[:span[0]], "\n")+1, name)
				}
			}
		}
	}
	if cited < 10 {
		t.Fatalf("found only %d cited metrics: the scan is broken", cited)
	}
}

// goToolFlags are the go command's own flags — go build, test, list and
// the test binary — as the documents pass them.
var goToolFlags = map[string]bool{
	"bench": true, "benchmem": true, "benchtime": true, "c": true, "count": true, "cover": true,
	"cpu": true, "cpuprofile": true, "e": true, "export": true, "f": true, "failfast": true,
	"fuzz": true, "fuzztime": true, "gcflags": true, "json": true, "list": true, "memprofile": true,
	"o": true, "parallel": true, "race": true, "run": true, "short": true, "tags": true,
	"timeout": true, "v": true, "x": true,
}

var (
	// flagDecl matches a flag declared on a flag set or on package flag:
	// fs.Int("workers", …), flag.BoolVar(&update, "update", …).
	flagDecl = regexp.MustCompile(`\b(?:fs|flag)\.[A-Z]\w*\((?:&[\w.]+,\s*)?"([\w-]+)"`)
	// shellSep ends one shell command inside a code span.
	shellSep = regexp.MustCompile(`\|\|?|&&|;|\$\(`)
	// citedFlag matches a -flag or --flag standing as its own word.
	citedFlag = regexp.MustCompile(`(?:^|\s)--?([a-z][\w-]*)`)
)

// TestDocsCiteFlagsThatExist fails on a document that passes, in
// backticks, a -flag that no flag set under cmd/ declares and the go
// command does not take. The flags checked are those of a command that
// is go or one of cmd/'s, or of a span that starts with the flag; another
// tool's flags (find -name, wc -l) say nothing about this tree.
func TestDocsCiteFlagsThatExist(t *testing.T) {
	declared := map[string]bool{}
	ours := map[string]bool{"go": true}
	err := filepath.WalkDir("cmd", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			ours[d.Name()] = true
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		data, err := os.ReadFile(p)
		for _, m := range flagDecl.FindAllSubmatch(data, -1) {
			declared[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := 0
	for _, doc := range citingDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, span := range backticked.FindAllStringIndex(text, -1) {
			code := strings.ReplaceAll(text[span[0]:span[1]], "\\\n", " ")
			if !strings.HasPrefix(code, "```") { // an inline span wraps like prose
				code = strings.ReplaceAll(code, "\n", " ")
			}
			for _, line := range strings.Split(strings.Trim(code, "`"), "\n") {
				for _, cmd := range shellSep.Split(line, -1) {
					words := strings.Fields(cmd)
					for len(words) > 0 && strings.Contains(words[0], "=") && !strings.HasPrefix(words[0], "-") {
						words = words[1:] // an environment assignment
					}
					if len(words) == 0 || !strings.HasPrefix(words[0], "-") &&
						!ours[strings.TrimPrefix(strings.TrimPrefix(words[0], "./"), "cmd/")] {
						continue
					}
					for _, m := range citedFlag.FindAllStringSubmatch(cmd, -1) {
						cited++
						if !declared[m[1]] && !goToolFlags[m[1]] {
							t.Errorf("%s:%d passes -%s, which no command under cmd/ declares",
								doc, strings.Count(text[:span[0]], "\n")+1, m[1])
						}
					}
				}
			}
		}
	}
	if cited < 150 {
		t.Fatalf("found only %d cited flags: the scan is broken", cited)
	}
}

var (
	// readmePackage matches a package line of README's architecture block,
	// parenthetical a parenthesis of its command list; designPackage a row
	// of DESIGN.md's inventory table, designCommand a command of the
	// paragraph after it.
	readmePackage = regexp.MustCompile(`(?m)^  ([a-z]+) `)
	parenthetical = regexp.MustCompile(`\([^)]*\)`)
	designPackage = regexp.MustCompile("(?m)^\\| `(internal/[a-z]+)` \\|")
	designCommand = regexp.MustCompile("`(cmd/[a-z]+)`")
)

// docSection returns the text of doc from the first line starting with
// from up to the next one starting with to.
func docSection(t *testing.T, doc, from, to string) string {
	t.Helper()
	data, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	_, text, ok := strings.Cut(string(data), "\n"+from)
	text, _, ok2 := strings.Cut(text, "\n"+to)
	if !ok || !ok2 {
		t.Fatalf("%s has no section from %q to %q", doc, from, to)
	}
	return text
}

// TestDocsTablesListEveryPackage fails when README's architecture block
// or DESIGN.md's system inventory omits an internal package or a command,
// or lists one the tree does not have.
func TestDocsTablesListEveryPackage(t *testing.T) {
	var all []string
	exists := map[string]bool{}
	for _, pattern := range []string{"internal/*", "cmd/*"} {
		dirs, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dirs {
			if fi, err := os.Stat(d); err == nil && fi.IsDir() {
				all = append(all, filepath.ToSlash(d))
				exists[filepath.ToSlash(d)] = true
			}
		}
	}
	check := func(doc string, listed []string) {
		t.Helper()
		seen := map[string]bool{}
		for _, p := range listed {
			seen[p] = true
			if !exists[p] {
				t.Errorf("%s lists %s, which does not exist", doc, p)
			}
		}
		for _, p := range all {
			if !seen[p] {
				t.Errorf("%s omits %s", doc, p)
			}
		}
	}

	block, cmds, _ := strings.Cut(docSection(t, "README.md", "## Architecture", "## Library tour"), "\ncmd/")
	cmds, _, _ = strings.Cut(cmds, "```")
	var listed []string
	for _, m := range readmePackage.FindAllStringSubmatch(block, -1) {
		listed = append(listed, "internal/"+m[1])
	}
	for _, name := range strings.Split(parenthetical.ReplaceAllString(cmds, ""), ",") {
		listed = append(listed, "cmd/"+strings.TrimSpace(name))
	}
	check("README.md", listed)

	inventory := docSection(t, "DESIGN.md", "## 3.", "## 4.")
	table, executables, _ := strings.Cut(inventory, "\nExecutables:")
	executables, _, _ = strings.Cut(executables, "\n\n")
	listed = nil
	for _, m := range designPackage.FindAllStringSubmatch(table, -1) {
		listed = append(listed, m[1])
	}
	for _, m := range designCommand.FindAllStringSubmatch(executables, -1) {
		listed = append(listed, m[1])
	}
	check("DESIGN.md", listed)
}

// citedIdent matches `pkg.Ident`, `pkg.Type.Method`, `pkg.(*Type).Method`
// and `internal/pkg.Ident`, with an optional trailing `*` for a prefix;
// one glued to a longer path or selector is not one.
var citedIdent = regexp.MustCompile(`(?:^|[^\w./])(?:internal/)?([a-z][a-z0-9]*)\.(?:\(\*)?([A-Z]\w*)\)?(?:\.([A-Z]\w*))?(\*)?`)

// internalDecls maps each internal package to the names its files, tests
// included, declare: "Ident" for a function, type, variable or constant,
// "Type.Name" for a method, struct field or interface method, and "Name"
// for a method too, the short form the documents also cite.
func internalDecls(t *testing.T) map[string]map[string]bool {
	files, err := filepath.Glob("internal/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, p := range files {
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := filepath.Base(filepath.Dir(p))
		if decls[pkg] == nil {
			decls[pkg] = map[string]bool{}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					switch generic := recv.(type) {
					case *ast.IndexExpr:
						recv = generic.X
					case *ast.IndexListExpr:
						recv = generic.X
					}
					decls[pkg][name] = true
					name = recv.(*ast.Ident).Name + "." + name
				}
				decls[pkg][name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							decls[pkg][n.Name] = true
						}
					case *ast.TypeSpec:
						decls[pkg][spec.Name.Name] = true
						members := new(ast.FieldList)
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							members = typ.Fields
						case *ast.InterfaceType:
							members = typ.Methods
						}
						for _, member := range members.List {
							for _, n := range member.Names {
								decls[pkg][spec.Name.Name+"."+n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return decls
}

// TestDocsCiteIdentifiersThatExist fails on a document that names, in
// backticks, an identifier of an internal package that the package does
// not declare. `pkg.Ident*` matches any declaration starting with Ident.
func TestDocsCiteIdentifiersThatExist(t *testing.T) {
	decls := internalDecls(t)
	cited := 0
	for _, doc := range citingDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, span := range backticked.FindAllStringIndex(text, -1) {
			for _, m := range citedIdent.FindAllStringSubmatch(text[span[0]:span[1]], -1) {
				pkg := decls[m[1]]
				if pkg == nil {
					continue
				}
				cited++
				name := m[2]
				if m[3] != "" {
					name += "." + m[3]
				}
				found := pkg[name]
				for decl := range pkg {
					found = found || m[4] == "*" && strings.HasPrefix(decl, name)
				}
				if !found {
					t.Errorf("%s:%d cites %s.%s%s, which internal/%s does not declare",
						doc, strings.Count(text[:span[0]], "\n")+1, m[1], name, m[4], m[1])
				}
			}
		}
	}
	if cited < 100 {
		t.Fatalf("found only %d cited identifiers: the scan is broken", cited)
	}
}
