// Command pqlint runs the repo's determinism and concurrency lint suite
// (see internal/analysis): globalrand, detrange, floateq, droppederr,
// walltime, looproutine, lockleak, atomicmix, ctxhttp.
//
// Usage:
//
//	pqlint [-json] [-rules globalrand,detrange,...] [-suppressed] [-tests] [patterns]
//
// Patterns are "./..." (the whole module containing the working
// directory, the tier-1 form) or package directories like
// ./internal/metrics. With no pattern, "./..." is assumed. _test.go
// files are analyzed by default (-tests=false restores library-only
// runs). Imports from outside the module are read from compiler export
// data (`go list -export`), so the go tool must be on PATH and a run
// after `go build ./...` finds the standard library already compiled.
//
// Exit codes (the tier-1 contract):
//
//	0  no un-suppressed diagnostics
//	1  at least one un-suppressed diagnostic (printed to stdout)
//	2  usage or load error (printed to stderr); a package that does not
//	   type-check is a load error, and the message names the first one
//
// With -json, stdout is a JSON array of diagnostic objects — empty for a
// clean tree — so CI can parse findings without scraping text.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"pagequality/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiag is the machine-readable diagnostic shape.
type jsonDiag struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Rule       string `json:"rule"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pqlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	rules := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	showSuppressed := fs.Bool("suppressed", false, "also list findings silenced by //pqlint:allow")
	tests := fs.Bool("tests", true, "analyze _test.go files too")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers, err := selectAnalyzers(*rules)
	if err != nil {
		fmt.Fprintf(stderr, "pqlint: %v\n", err)
		return 2
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "pqlint: %v\n", err)
		return 2
	}
	pkgs, err := analysis.LoadModule(root, *tests)
	if err != nil {
		fmt.Fprintf(stderr, "pqlint: %v\n", err)
		return 2
	}
	pkgs, err = filterPackages(pkgs, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "pqlint: %v\n", err)
		return 2
	}

	diags := analysis.RunAnalyzers(pkgs, analyzers)
	active := 0
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		if d.Suppressed && !*showSuppressed {
			continue
		}
		if !d.Suppressed {
			active++
		}
		rel := d.Pos.Filename
		if r, err := filepath.Rel(root, rel); err == nil && !strings.HasPrefix(r, "..") {
			rel = r
		}
		if *jsonOut {
			out = append(out, jsonDiag{
				File: rel, Line: d.Pos.Line, Col: d.Pos.Column,
				Rule: d.Rule, Message: d.Message,
				Suppressed: d.Suppressed, Reason: d.Reason,
			})
		} else {
			mark := ""
			if d.Suppressed {
				mark = " (suppressed: " + d.Reason + ")"
			}
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s%s\n",
				rel, d.Pos.Line, d.Pos.Column, d.Rule, d.Message, mark)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "pqlint: %v\n", err)
			return 2
		}
	}
	if active > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -rules flag against the registry.
func selectAnalyzers(rules string) ([]*analysis.Analyzer, error) {
	all := analysis.Analyzers()
	if rules == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var sel []*analysis.Analyzer
	for _, name := range strings.Split(rules, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (known: %s)",
				name, strings.Join(analysis.AnalyzerNames(), ", "))
		}
		sel = append(sel, a)
	}
	return sel, nil
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above working directory")
		}
		dir = parent
	}
}

// filterPackages restricts the loaded module to the requested patterns.
// "./..." (or no pattern) keeps everything; a directory pattern keeps the
// package rooted there, and dir/... keeps its subtree.
func filterPackages(pkgs []*analysis.Package, patterns []string) ([]*analysis.Package, error) {
	if len(patterns) == 0 {
		return pkgs, nil
	}
	keep := make(map[string]bool)
	var recursive []string
	for _, pat := range patterns {
		if pat == "./..." || pat == "..." {
			return pkgs, nil
		}
		rec := false
		if strings.HasSuffix(pat, "/...") {
			rec = true
			pat = strings.TrimSuffix(pat, "/...")
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if rec {
			recursive = append(recursive, abs)
		} else {
			keep[abs] = true
		}
	}
	var out []*analysis.Package
	for _, p := range pkgs {
		abs, err := filepath.Abs(p.Dir)
		if err != nil {
			return nil, err
		}
		if keep[abs] {
			out = append(out, p)
			continue
		}
		for _, r := range recursive {
			if abs == r || strings.HasPrefix(abs, r+string(filepath.Separator)) {
				out = append(out, p)
				break
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("patterns %v matched no packages", patterns)
	}
	return out, nil
}
