package analysis_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pagequality/internal/analysis"
)

// wantRe matches expected-diagnostic annotations in testdata sources:
//
//	expr // want <rule> "message substring"
var wantRe = regexp.MustCompile(`// want ([a-z]+) "([^"]+)"`)

type expectation struct {
	file string
	line int
	rule string
	sub  string
}

// readExpectations scans every Go file in dir for want annotations.
func readExpectations(t *testing.T, dir string) []expectation {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []expectation
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				wants = append(wants, expectation{
					file: path, line: i + 1, rule: m[1], sub: m[2],
				})
			}
		}
	}
	return wants
}

func analyzerByName(t *testing.T, name string) *analysis.Analyzer {
	t.Helper()
	for _, a := range analysis.Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer %q", name)
	return nil
}

// TestAnalyzersOnCorpus runs each rule against its frozen testdata corpus:
// the positive file must produce exactly the annotated diagnostics, the
// negative file none, and the suppressed file only suppressed ones.
func TestAnalyzersOnCorpus(t *testing.T) {
	for _, rule := range analysis.AnalyzerNames() {
		rule := rule
		t.Run(rule, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", rule)
			pkg, err := analysis.LoadDir(dir, "pqlint.test/"+rule)
			if err != nil {
				t.Fatal(err)
			}
			diags := analysis.RunAnalyzers([]*analysis.Package{pkg},
				[]*analysis.Analyzer{analyzerByName(t, rule)})

			wants := readExpectations(t, dir)
			matched := make([]bool, len(diags))
			for _, w := range wants {
				found := false
				for i, d := range diags {
					if matched[i] || d.Suppressed {
						continue
					}
					if d.Pos.Filename == w.file && d.Pos.Line == w.line &&
						d.Rule == w.rule && strings.Contains(d.Message, w.sub) {
						matched[i] = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("missing diagnostic: %s:%d [%s] ~ %q", w.file, w.line, w.rule, w.sub)
				}
			}
			var suppressed int
			for i, d := range diags {
				if d.Suppressed {
					suppressed++
					if d.Reason == "" {
						t.Errorf("suppressed diagnostic without reason: %s", d)
					}
					if !strings.Contains(d.Pos.Filename, "suppressed.go") {
						t.Errorf("unexpected suppression outside suppressed.go: %s", d)
					}
					continue
				}
				if !matched[i] {
					t.Errorf("unexpected diagnostic: %s", d)
				}
				if strings.Contains(d.Pos.Filename, "negative.go") {
					t.Errorf("negative case flagged: %s", d)
				}
			}
			if suppressed == 0 {
				t.Errorf("suppressed.go produced no suppressed diagnostic; the directive path is untested")
			}
		})
	}
}

// TestMalformedDirectives checks that bad //pqlint:allow lines are
// themselves diagnosed rather than silently ignored.
func TestMalformedDirectives(t *testing.T) {
	dir := t.TempDir()
	src := `package bad

//pqlint:allow floateq
func missingReason() {}

//pqlint:allow nosuchrule because reasons
func unknownRule() {}
`
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.LoadDir(dir, "pqlint.test/bad")
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.RunAnalyzers([]*analysis.Package{pkg}, analysis.Analyzers())
	var malformed, unknown bool
	for _, d := range diags {
		if d.Rule != "directive" {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		switch {
		case strings.Contains(d.Message, "malformed"):
			malformed = true
		case strings.Contains(d.Message, "unknown rule"):
			unknown = true
		}
	}
	if !malformed {
		t.Error("missing diagnostic for directive without reason")
	}
	if !unknown {
		t.Error("missing diagnostic for directive naming an unknown rule")
	}
}

// TestModuleIsClean is the dogfood gate: the repo itself — _test.go files
// included — must type-check fully and carry zero un-suppressed
// diagnostics, mirroring the tier-1 `go run ./cmd/pqlint ./...` contract.
// Stale //pqlint:allow directives surface here as un-suppressed
// "directive" findings, so dead allows fail the build too.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.LoadModule(root, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	variants := 0
	for _, p := range pkgs {
		if p.ForTest != "" {
			variants++
		}
	}
	if variants == 0 {
		t.Error("no test-variant packages loaded; -tests coverage is dead")
	}
	for _, d := range analysis.RunAnalyzers(pkgs, analysis.Analyzers()) {
		if !d.Suppressed {
			t.Errorf("un-suppressed diagnostic in tree: %s", d)
		}
	}
}

// TestStaleAllowDirective checks that a //pqlint:allow which suppresses
// nothing is reported, and only for rules that actually ran.
func TestStaleAllowDirective(t *testing.T) {
	dir := t.TempDir()
	src := `package stale

//pqlint:allow floateq historical comparison long since deleted
func nothingToSuppress() int { return 1 }
`
	if err := os.WriteFile(filepath.Join(dir, "stale.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.LoadDir(dir, "pqlint.test/stale")
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.RunAnalyzers([]*analysis.Package{pkg}, analysis.Analyzers())
	found := false
	for _, d := range diags {
		if d.Rule == "directive" && strings.Contains(d.Message, "stale") {
			found = true
		}
	}
	if !found {
		t.Fatalf("stale directive not reported; got %v", diags)
	}
	// The same package analyzed without floateq: the allow is dormant,
	// not stale.
	for _, d := range analysis.RunAnalyzers([]*analysis.Package{pkg},
		[]*analysis.Analyzer{analyzerByName(t, "globalrand")}) {
		if d.Rule == "directive" {
			t.Errorf("dormant directive misreported as stale: %s", d)
		}
	}
}
