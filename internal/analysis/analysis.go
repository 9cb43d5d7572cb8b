// Package analysis is a stdlib-only, pass-based static-analysis framework
// enforcing the repo's determinism and concurrency invariants. The paper's
// Q(p) estimator is only trustworthy while every run is reproducible, and
// the serving/crawl stack is only scalable while its concurrency is
// mechanically disciplined; the rule suite locks both in:
//
// Determinism rules (PR 2): no package-level math/rand in library code
// (globalrand), no map-iteration order leaking into ordered or
// float-accumulated output (detrange), no bare float equality outside
// documented tie handling (floateq), no silently discarded errors
// (droppederr).
//
// Concurrency and wall-clock rules (PR 7): no wall-clock reads in
// deterministic library code — injectable clocks only (walltime), no
// unbounded goroutine launches in loops (looproutine), no mutex Lock
// without an Unlock on every path (lockleak), no mixing sync/atomic and
// plain access to the same field (atomicmix), and no context-less HTTP
// request construction (ctxhttp).
//
// Architecture: the loader (load.go) type-checks the module's packages
// against compiler export data for everything outside the module; each
// analyzer is one named rule that walks a package through the Inspector
// (inspector.go) and reports. Findings from every rule are merged and
// sorted deterministically.
//
// Intentional exceptions are suppressed in source with a directive:
//
//	//pqlint:allow <rule> <reason>
//
// placed on the flagged line, on the line immediately above it, or in the
// doc comment of the enclosing top-level declaration (which suppresses the
// rule for the whole declaration). The reason is mandatory, and a
// directive that suppresses nothing is itself reported as stale — allows
// must die with the code they excused.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Diagnostic is one finding from one analyzer, positioned in the
// original source.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
	// Suppressed is true when a //pqlint:allow directive covers the
	// finding; Reason carries the directive's justification.
	Suppressed bool
	Reason     string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Rule, d.Message)
}

// A Pass carries one type-checked package through the analyzers.
type Pass struct {
	Files     []*ast.File
	TypesInfo *types.Info

	// IsCommand is true for package main and its test variants. Rules
	// that only bind library code (walltime) consult it: commands own
	// the process boundary, where wall-clock timing on stderr is the
	// documented idiom.
	IsCommand bool

	report func(token.Pos, string, string)
}

// Reportf records a diagnostic for rule at pos.
func (p *Pass) Reportf(pos token.Pos, rule, format string, args ...any) {
	p.report(pos, rule, fmt.Sprintf(format, args...))
}

// pkgOf returns the import path of the package that sel.X names ("time"
// for time.Now), or "" when sel.X is not a package name.
func (p *Pass) pkgOf(sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := p.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// Inspector returns the filtered traversal of the package's files.
func (p *Pass) Inspector() *Inspector {
	return &Inspector{files: p.Files}
}

// An Analyzer is one named rule.
type Analyzer struct {
	Name string
	// Run walks the package and reports what the rule finds.
	Run func(*Pass)
}

// Analyzers returns the full rule suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		GlobalRandAnalyzer,
		DetRangeAnalyzer,
		FloatEqAnalyzer,
		DroppedErrAnalyzer,
		WallTimeAnalyzer,
		LoopRoutineAnalyzer,
		LockLeakAnalyzer,
		AtomicMixAnalyzer,
		CtxHTTPAnalyzer,
	}
}

// AnalyzerNames returns the names of the full suite, for -rules validation.
func AnalyzerNames() []string {
	all := Analyzers()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}

// DirectivePrefix is the comment prefix of a suppression directive.
const DirectivePrefix = "//pqlint:allow"

// directiveRule is the pseudo-rule under which malformed and stale
// suppression directives are reported.
const directiveRule = "directive"

// allowSite is one parsed //pqlint:allow directive.
type allowSite struct {
	pos    token.Position
	rule   string
	reason string
	used   bool
}

// suppressions indexes the allow directives of one package.
type suppressions struct {
	// byLine maps file -> line -> directives attached to that line.
	byLine map[string]map[int][]*allowSite
	// byDecl maps directives found in a top-level declaration's doc
	// comment to the declaration's position extent.
	byDecl []declAllow
	// sites lists every directive in parse order, for staleness
	// aggregation.
	sites []*allowSite
}

type declAllow struct {
	file     string
	from, to int // line range covered
	site     *allowSite
}

// parseSuppressions scans the comments of files for allow directives,
// reporting malformed ones through report.
func parseSuppressions(fset *token.FileSet, files []*ast.File, report func(pos token.Pos, rule, format string, args ...any)) *suppressions {
	s := &suppressions{byLine: make(map[string]map[int][]*allowSite)}
	for _, f := range files {
		// Doc-comment directives cover their whole declaration.
		docEnd := make(map[*ast.CommentGroup][2]token.Pos) // doc group -> decl extent
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Doc != nil {
					docEnd[d.Doc] = [2]token.Pos{d.Pos(), d.End()}
				}
			case *ast.GenDecl:
				if d.Doc != nil {
					docEnd[d.Doc] = [2]token.Pos{d.Pos(), d.End()}
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, DirectivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, DirectivePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //pqlint:allowfoo — not ours
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					report(c.Pos(), directiveRule,
						"malformed directive: want //pqlint:allow <rule> <reason>")
					continue
				}
				rule := fields[0]
				if !knownRule(rule) {
					report(c.Pos(), directiveRule,
						"directive names unknown rule %q (known: %s)",
						rule, strings.Join(AnalyzerNames(), ", "))
					continue
				}
				site := &allowSite{
					pos:    fset.Position(c.Pos()),
					rule:   rule,
					reason: strings.Join(fields[1:], " "),
				}
				s.sites = append(s.sites, site)
				if ext, ok := docEnd[cg]; ok {
					from := fset.Position(ext[0])
					to := fset.Position(ext[1])
					s.byDecl = append(s.byDecl, declAllow{
						file: from.Filename, from: from.Line, to: to.Line, site: site,
					})
					continue
				}
				pos := site.pos
				if s.byLine[pos.Filename] == nil {
					s.byLine[pos.Filename] = make(map[int][]*allowSite)
				}
				s.byLine[pos.Filename][pos.Line] = append(s.byLine[pos.Filename][pos.Line], site)
			}
		}
	}
	return s
}

// match returns the covering directive for a diagnostic of rule at pos,
// or nil. Line directives cover their own line and the one below; decl
// directives cover the declaration's line extent.
func (s *suppressions) match(pos token.Position, rule string) *allowSite {
	if lines := s.byLine[pos.Filename]; lines != nil {
		for _, line := range [2]int{pos.Line, pos.Line - 1} {
			for _, site := range lines[line] {
				if site.rule == rule {
					site.used = true
					return site
				}
			}
		}
	}
	for _, da := range s.byDecl {
		if da.file == pos.Filename && da.from <= pos.Line && pos.Line <= da.to && da.site.rule == rule {
			da.site.used = true
			return da.site
		}
	}
	return nil
}

func knownRule(name string) bool {
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// staleKey dedupes one physical directive across package variants: the
// same //pqlint:allow line is parsed once in the plain package and again
// in its test variant, and is live if either run used it.
type staleKey struct {
	file string
	line int
	rule string
}

// RunAnalyzers applies every analyzer to every package and returns all
// diagnostics — suppressed ones included, flagged — in deterministic
// file/line/column/rule order. A directive
// that suppressed nothing across the whole run is reported as a stale
// "directive" diagnostic, but only for rules that actually ran: an allow
// for a rule excluded by -rules is dormant, not stale.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	stale := make(map[staleKey]*allowSite)
	var staleOrder []staleKey

	var diags []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		report := func(pos token.Pos, rule, msg string) {
			raw = append(raw, Diagnostic{
				Pos:     pkg.Fset.Position(pos),
				Rule:    rule,
				Message: msg,
			})
		}
		sup := parseSuppressions(pkg.Fset, pkg.Files,
			func(pos token.Pos, rule, format string, args ...any) {
				report(pos, rule, fmt.Sprintf(format, args...))
			})
		pass := &Pass{
			Files:     pkg.Files,
			TypesInfo: pkg.Info,
			IsCommand: pkg.IsCommand,
			report:    report,
		}
		for _, a := range analyzers {
			a.Run(pass)
		}
		// A test variant re-checks the plain files alongside the _test.go
		// files; only findings in the test files are new — the rest were
		// already reported by the plain package.
		if pkg.ForTest != "" {
			kept := raw[:0]
			for _, d := range raw {
				if pkg.TestGoFiles[d.Pos.Filename] {
					kept = append(kept, d)
				}
			}
			raw = kept
		}
		for i := range raw {
			if site := sup.match(raw[i].Pos, raw[i].Rule); site != nil {
				raw[i].Suppressed = true
				raw[i].Reason = site.reason
			}
		}
		diags = append(diags, raw...)
		for _, site := range sup.sites {
			if !ran[site.rule] {
				continue
			}
			key := staleKey{file: site.pos.Filename, line: site.pos.Line, rule: site.rule}
			prev, ok := stale[key]
			if !ok {
				stale[key] = site
				staleOrder = append(staleOrder, key)
			} else if site.used && !prev.used {
				stale[key] = site
			}
		}
	}
	for _, key := range staleOrder {
		if site := stale[key]; !site.used {
			diags = append(diags, Diagnostic{
				Pos:  site.pos,
				Rule: directiveRule,
				Message: fmt.Sprintf(
					"stale //pqlint:allow %s directive: no finding suppressed; delete it", site.rule),
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags
}
