package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// chdir moves the process into dir for one test (run serially).
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

// writeModule lays out a throwaway module with one dirty package.
func writeModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module pqlint.test/dirty\n\ngo 1.22\n",
		"dirty/dirty.go": `package dirty

import "math/rand"

func Draw() int {
	return rand.Intn(10)
}

func Eq(a, b float64) bool {
	return a == b
}
`,
		"clean/clean.go": `package clean

func Add(a, b int) int { return a + b }
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

func TestRunFindsDiagnosticsAndJSON(t *testing.T) {
	chdir(t, writeModule(t))
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	var diags []jsonDiag
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout.String())
	}
	rules := map[string]int{}
	for _, d := range diags {
		rules[d.Rule]++
		if d.File == "" || d.Line == 0 || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
		if filepath.IsAbs(d.File) {
			t.Errorf("diagnostic path not module-relative: %s", d.File)
		}
	}
	if rules["globalrand"] != 1 || rules["floateq"] != 1 {
		t.Errorf("rule counts = %v, want one globalrand and one floateq", rules)
	}
}

func TestRunCleanPackageExitsZero(t *testing.T) {
	chdir(t, writeModule(t))
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "./clean"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr.String())
	}
	var diags []jsonDiag
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(diags) != 0 {
		t.Errorf("clean package produced diagnostics: %v", diags)
	}
}

func TestRunRuleSubset(t *testing.T) {
	chdir(t, writeModule(t))
	var stdout, stderr bytes.Buffer
	code := run([]string{"-rules", "floateq", "./dirty"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "[floateq]") || strings.Contains(out, "[globalrand]") {
		t.Errorf("subset run printed wrong rules:\n%s", out)
	}
}

func TestRunUsageErrors(t *testing.T) {
	chdir(t, writeModule(t))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rules", "nosuchrule", "./..."}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown rule: exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown rule") {
		t.Errorf("stderr missing unknown-rule message: %s", stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"./nosuchdir"}, &stdout, &stderr); code != 2 {
		t.Errorf("unmatched pattern: exit = %d, want 2", code)
	}
	// The dirty package imports math/rand, whose types come from `go list
	// -export`: without a go tool the load fails, it does not lint clean.
	stderr.Reset()
	t.Setenv("PATH", "")
	if code := run([]string{"./..."}, &stdout, &stderr); code != 2 {
		t.Errorf("no go tool: exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "go list -export") {
		t.Errorf("stderr does not name the failed command: %s", stderr.String())
	}
}

// TestRunTypeErrorExitsTwo: the rules degrade silently on partial type
// information, so a module that does not type-check is a load error (exit
// 2, first error of each broken package on stderr), never a clean pass.
func TestRunTypeErrorExitsTwo(t *testing.T) {
	root := writeModule(t)
	broken := `package broken

import "nosuch/pkg"

var x int = "s"

var _ = pkg.Y
`
	if err := os.Mkdir(filepath.Join(root, "broken"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "broken", "broken.go"), []byte(broken), 0o644); err != nil {
		t.Fatal(err)
	}
	chdir(t, root)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("rules ran on a tree that does not type-check:\n%s", stdout.String())
	}
	if got := stderr.String(); strings.Count(got, "\n") != 1 || !strings.Contains(got, "pqlint.test/dirty/broken: ") {
		t.Errorf("stderr should be one line naming the broken package, got:\n%s", got)
	}
}

// TestGoldenJSON freezes the -json output — field order, rule names,
// messages, positions, and suppressed findings with reasons — against a
// committed fixture module that trips every rule exactly once. Run with
// -update to regenerate after an intentional change.
func TestGoldenJSON(t *testing.T) {
	golden, err := filepath.Abs(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := filepath.Abs(filepath.Join("testdata", "module"))
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, fixture)

	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "-suppressed", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}

	var diags []jsonDiag
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout.String())
	}
	unsuppressed := map[string]int{}
	var suppressedRules, testFileFindings int
	for _, d := range diags {
		if d.Suppressed {
			suppressedRules++
			if d.Reason == "" {
				t.Errorf("suppressed finding without reason: %+v", d)
			}
			continue
		}
		unsuppressed[d.Rule]++
		if strings.HasSuffix(d.File, "_test.go") {
			testFileFindings++
		}
		if strings.HasPrefix(d.File, "cmd/") && d.Rule == "walltime" {
			t.Errorf("walltime flagged inside a command: %+v", d)
		}
	}
	for _, rule := range []string{"globalrand", "detrange", "floateq", "droppederr",
		"walltime", "looproutine", "lockleak", "atomicmix", "ctxhttp"} {
		if unsuppressed[rule] == 0 {
			t.Errorf("fixture tripped no %s finding", rule)
		}
	}
	if suppressedRules == 0 {
		t.Error("no suppressed finding in fixture; -suppressed path untested")
	}
	if testFileFindings == 0 {
		t.Error("no finding from a _test.go file; -tests coverage untested")
	}

	if *update {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/pqlint -run TestGoldenJSON -update` to create it)", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("-json output drifted from golden file (re-run with -update if intentional)\ngot:\n%s\nwant:\n%s",
			stdout.String(), want)
	}
}

// TestRepoTreeIsClean mirrors the tier-1 contract on the real module.
func TestRepoTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("pqlint on the repo: exit = %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run printed output:\n%s", stdout.String())
	}
}
