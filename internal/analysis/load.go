package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// A Package is one parsed and fully type-checked module package ready
// for analysis: a package that does not type-check fails the load, so the
// analyzers always see complete type information.
type Package struct {
	Path string // import path ("path_test" for external test packages)
	Dir  string
	// ForTest is the import path of the package under test when this
	// package is a test variant (the package's own files plus its
	// in-package _test.go files) or an external _test package; "" for a
	// plain package. Analyzers report only _test.go findings from test
	// variants — the plain files were already covered by the plain
	// package.
	ForTest string
	// TestGoFiles marks the absolute filenames of this package's
	// _test.go files.
	TestGoFiles map[string]bool
	// IsCommand is true for package main and its test variants.
	IsCommand bool
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	Info      *types.Info
}

// ModulePath reads the module path from the go.mod at root.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s/go.mod", root)
}

// exportImporter returns an importer that reads the compiler's export
// data for paths, the route go vet takes: one `go list -export` run in dir
// compiles each package, or finds it in the build cache `go build` filled,
// and prints where its export file is. A path go list cannot build has no
// file, and importing it is an import error go/types reports on the
// importing package.
func exportImporter(fset *token.FileSet, dir string, paths []string) (types.Importer, error) {
	exports := make(map[string]string, len(paths))
	if len(paths) > 0 {
		cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, paths...)...)
		cmd.Dir = dir
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("analysis: go list -export: %s", strings.TrimSpace(err.Error()+"\n"+stderr.String()))
		}
		for _, line := range strings.Split(string(out), "\n") {
			if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
				exports[path] = file
			}
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}), nil
}

// importPaths lists, sorted, the distinct paths files import that local
// rejects (nil rejects none) — the ones export data has to answer.
func importPaths(files []*ast.File, local func(string) bool) []string {
	seen := make(map[string]bool)
	var paths []string
	for _, f := range files {
		for _, spec := range f.Imports {
			ip := strings.Trim(spec.Path.Value, `"`)
			if seen[ip] || ip == "unsafe" || ip == "C" || local != nil && local(ip) {
				continue
			}
			seen[ip] = true
			paths = append(paths, ip)
		}
	}
	slices.Sort(paths)
	return paths
}

// unit is one type-check unit: a plain package, its test variant, or its
// external test package.
type unit struct {
	pkg *Package
	// variant, on an external test package, is the test variant of the
	// package under test: the external tests may use in-package test
	// helpers, so their import of that package resolves to it.
	variant  *unit
	checking bool
}

// loader carries one load: the module's plain packages by import path,
// and the export-data importer for the rest.
type loader struct {
	plain map[string]*unit
	std   types.Importer
}

// unitImporter resolves one unit's imports: module packages are checked on
// demand, so the module is checked depth-first in import order.
type unitImporter struct {
	ld *loader
	u  *unit
}

func (im unitImporter) Import(path string) (*types.Package, error) {
	dep := im.ld.plain[path]
	if v := im.u.variant; v != nil && path == v.pkg.Path {
		dep = v
	}
	if dep == nil {
		return im.ld.std.Import(path)
	}
	if dep.checking {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	if err := im.ld.check(dep); err != nil {
		return nil, err
	}
	return dep.pkg.Types, nil
}

// check type-checks u once. The error names u's import path and the first
// type error; a dependency's failure surfaces as the failure to import it.
func (ld *loader) check(u *unit) error {
	p := u.pkg
	if p.Types != nil {
		return nil
	}
	u.checking = true
	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: unitImporter{ld: ld, u: u}, FakeImportC: true}
	var err error
	p.Types, err = conf.Check(p.Path, p.Fset, p.Files, p.Info)
	u.checking = false
	if err != nil {
		return fmt.Errorf("analysis: %s: %w", p.Path, err)
	}
	return nil
}

// parseDir parses the Go files of dir that this platform's build
// constraints select (//go:build lines, _GOOS/_GOARCH suffixes), _test.go
// files only when tests is set.
func parseDir(fset *token.FileSet, dir string, tests bool) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || !tests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// newPackage wraps parsed files as an unchecked Package; names of _test.go
// files among them go to TestGoFiles.
func newPackage(fset *token.FileSet, path, dir, forTest string, files []*ast.File) *Package {
	p := &Package{Path: path, Dir: dir, ForTest: forTest, TestGoFiles: make(map[string]bool), Fset: fset, Files: files}
	for _, f := range files {
		if name := fset.File(f.Package).Name(); strings.HasSuffix(name, "_test.go") {
			p.TestGoFiles[name] = true
		}
		if f.Name.Name == "main" {
			p.IsCommand = true
		}
	}
	return p
}

// LoadModule parses and type-checks every package under root (the module
// root), skipping testdata and hidden directories and the files this
// platform's build constraints exclude. With tests, each package's
// _test.go files are loaded too: in-package test files form a test variant
// of the package (its own files plus those), and package foo_test files
// form their own external test package importing the variant. Imports from
// outside the module are read from compiler export data, so the go tool
// must be on PATH. Packages come back sorted by import path (plain before
// test variant before external test package). A package that does not
// type-check fails the load, and the error names the first one.
func LoadModule(root string, tests bool) ([]*Package, error) {
	modPath, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	root, err = filepath.Abs(root)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	fset := token.NewFileSet()
	ld := &loader{plain: make(map[string]*unit)}
	var units []*unit
	var all []*ast.File
	add := func(u *unit) *unit {
		units = append(units, u)
		return u
	}
	err = filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := parseDir(fset, dir, tests)
		if err != nil {
			return err
		}
		all = append(all, files...)
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := modPath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		// Test files are classified by their package clause: a package
		// name ending in _test is an external test package.
		var goFiles, testFiles, xtestFiles []*ast.File
		for _, f := range files {
			switch {
			case !strings.HasSuffix(fset.File(f.Package).Name(), "_test.go"):
				goFiles = append(goFiles, f)
			case strings.HasSuffix(f.Name.Name, "_test"):
				xtestFiles = append(xtestFiles, f)
			default:
				testFiles = append(testFiles, f)
			}
		}
		var base, variant *unit
		if len(goFiles) > 0 {
			base = add(&unit{pkg: newPackage(fset, path, dir, "", goFiles)})
			ld.plain[path] = base
		}
		if len(testFiles) > 0 {
			variant = add(&unit{pkg: newPackage(fset, path, dir, path, slices.Concat(goFiles, testFiles))})
		}
		if len(xtestFiles) > 0 {
			x := add(&unit{pkg: newPackage(fset, path+"_test", dir, path, xtestFiles), variant: variant})
			// External tests of a main package are still command territory.
			x.pkg.IsCommand = base != nil && base.pkg.IsCommand
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: walk %s: %w", root, err)
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("analysis: no Go packages under %s", root)
	}
	ld.std, err = exportImporter(fset, root, importPaths(all, func(p string) bool {
		return p == modPath || strings.HasPrefix(p, modPath+"/")
	}))
	if err != nil {
		return nil, err
	}
	// A directory's units were added plain, variant, external; the walk is
	// not in import-path order where a name holds a byte below '/'.
	slices.SortStableFunc(units, func(a, b *unit) int {
		return strings.Compare(cmp.Or(a.pkg.ForTest, a.pkg.Path), cmp.Or(b.pkg.ForTest, b.pkg.Path))
	})
	pkgs := make([]*Package, len(units))
	for i, u := range units {
		if err := ld.check(u); err != nil {
			return nil, err
		}
		pkgs[i] = u.pkg
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the single package in dir under the
// given import path, resolving its imports through export data like
// LoadModule; a type error fails the load. Used by the analyzer test
// harness on testdata packages.
func LoadDir(dir, importPath string) (*Package, error) {
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir, true)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	ld := &loader{}
	if ld.std, err = exportImporter(fset, dir, importPaths(files, nil)); err != nil {
		return nil, err
	}
	u := &unit{pkg: newPackage(fset, importPath, dir, "", files)}
	if err := ld.check(u); err != nil {
		return nil, err
	}
	return u.pkg, nil
}
