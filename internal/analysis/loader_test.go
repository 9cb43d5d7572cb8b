package analysis_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pagequality/internal/analysis"
)

// writeTestModule lays out a small module exercising every loader shape:
// a library package, its in-package test variant, an external _test
// package using an in-package helper, a command, an inter-package
// import, a file the build constraints exclude, and two directories
// (core-util, core/sub) a directory walk meets out of import-path order.
func writeTestModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module loadertest.example/m\n\ngo 1.22\n",
		"core/core.go": `package core

// Double is imported by pkg and by the command.
func Double(x int) int { return 2 * x }
`,
		"core/gen.go": `//go:build ignore

// A generator run with "go run gen.go": never part of package core.
package main

func main() { undefinedHelper() }
`,
		"core/sub/sub.go":   "package sub\n",
		"core-util/util.go": "package util\n",
		"pkg/pkg.go": `package pkg

import "loadertest.example/m/core"

func Quad(x int) int { return core.Double(core.Double(x)) }
`,
		"pkg/pkg_test.go": `package pkg

import "testing"

// helper is an in-package test helper the external package reaches
// through the test variant.
func helper() int { return Quad(1) }

func TestQuad(t *testing.T) {
	if helper() != 4 {
		t.Fatal("quad")
	}
}
`,
		"pkg/ext_test.go": `package pkg_test

import (
	"testing"

	"loadertest.example/m/pkg"
)

func TestExternal(t *testing.T) {
	if pkg.Quad(2) != 8 {
		t.Fatal("quad")
	}
}
`,
		"cmd/run/main.go": `package main

import (
	"fmt"

	"loadertest.example/m/core"
)

func main() { fmt.Println(core.Double(21)) }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadModuleShapes checks the package universe the loader produces:
// plain packages, test variants, external test packages, command
// detection, import-path order, no build-excluded file, and clean
// type-checking for all of them.
func TestLoadModuleShapes(t *testing.T) {
	root := writeTestModule(t)
	pkgs, err := analysis.LoadModule(root, true)
	if err != nil {
		t.Fatal(err)
	}
	type shape struct {
		path, forTest string
		isCommand     bool
		testFiles     int
	}
	var got []shape
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Errorf("%s: type errors: %v", p.Path, p.TypeErrors)
		}
		if p.Types == nil || p.Info == nil {
			t.Errorf("%s: missing type info", p.Path)
		}
		for _, f := range p.Files {
			if name := p.Fset.File(f.Package).Name(); filepath.Base(name) == "gen.go" {
				t.Errorf("%s: loaded %s, which //go:build ignore excludes", p.Path, name)
			}
		}
		got = append(got, shape{p.Path, p.ForTest, p.IsCommand, len(p.TestGoFiles)})
	}
	want := []shape{
		{"loadertest.example/m/cmd/run", "", true, 0},
		{"loadertest.example/m/core", "", false, 0},
		{"loadertest.example/m/core-util", "", false, 0},
		{"loadertest.example/m/core/sub", "", false, 0},
		{"loadertest.example/m/pkg", "", false, 0},
		{"loadertest.example/m/pkg", "loadertest.example/m/pkg", false, 1},
		{"loadertest.example/m/pkg_test", "loadertest.example/m/pkg", false, 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("package universe:\n got %+v\nwant %+v", got, want)
	}

	// Without tests, only the five plain packages load.
	plain, err := analysis.LoadModule(root, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 5 {
		t.Fatalf("tests=false loaded %d packages, want 5", len(plain))
	}
}

// TestLoadModuleNoGoTool pins the failure mode of the one outside
// dependency the loader has: imports from outside the module come from
// `go list -export`, so without a go tool the load is an error naming that
// command, never a panic or a silently degraded (clean-looking) result.
func TestLoadModuleNoGoTool(t *testing.T) {
	root := writeTestModule(t)
	t.Setenv("PATH", "")
	pkgs, err := analysis.LoadModule(root, true)
	if err == nil {
		t.Fatalf("LoadModule without a go tool returned %d packages and no error", len(pkgs))
	}
	if !strings.HasPrefix(err.Error(), "analysis: go list -export: ") {
		t.Fatalf("error does not name the command: %v", err)
	}
}

// TestTestVariantNoDuplicateFindings checks the variant filter: a finding
// in a package's plain files is reported once even though the test
// variant re-checks those files, while findings in _test.go files are
// reported from the variant.
func TestTestVariantNoDuplicateFindings(t *testing.T) {
	root := writeTestModule(t)
	dirty := `package pkg

func EqHere(a, b float64) bool { return a == b }
`
	dirtyTest := `package pkg

func eqInTest(a, b float64) bool { return a != b }
`
	if err := os.WriteFile(filepath.Join(root, "pkg", "dirty.go"), []byte(dirty), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "pkg", "dirty_test.go"), []byte(dirtyTest), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.LoadModule(root, true)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, d := range analysis.RunAnalyzers(pkgs, analysis.Analyzers()) {
		counts[filepath.Base(d.Pos.Filename)]++
	}
	want := map[string]int{"dirty.go": 1, "dirty_test.go": 1}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("findings per file = %v, want %v", counts, want)
	}
}
