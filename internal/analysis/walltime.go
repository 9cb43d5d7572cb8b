package analysis

import "go/ast"

// WallTimeAnalyzer forbids reading the wall clock in deterministic
// library code: time.Now, time.Sleep, time.Since and friends make a
// function's output (or schedule) depend on when and on what machine it
// ran, which is exactly the nondeterminism the committed experiment
// outputs and bitwise-parity tests exist to exclude. Library code takes
// an injectable clock (a `func() time.Time` / sleep func field) instead;
// the process boundary — package main, where wall-clock timing on stderr
// is the documented idiom — is exempt, and genuine time boundaries in
// libraries (crawl retry deadlines, fault-injection latency) carry a
// //pqlint:allow walltime directive naming themselves.
var WallTimeAnalyzer = &Analyzer{
	Name: "walltime",
	Doc:  "forbid wall-clock reads (time.Now/Sleep/Since/...) in library code; inject clocks",
	Run:  runWallTime,
}

// wallClockFuncs are the package time functions that observe or depend on
// the wall clock. Type and constant names (time.Time, time.Millisecond)
// and explicit constructors from parts (time.Date, time.Unix) stay legal:
// only ambient "what time is it right now" reads are nondeterministic.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

func runWallTime(pass *Pass) {
	if pass.IsCommand {
		return
	}
	pass.Inspector().Preorder([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node) {
		sel := n.(*ast.SelectorExpr)
		if wallClockFuncs[sel.Sel.Name] && pass.pkgOf(sel) == "time" {
			pass.Reportf(sel.Pos(), "walltime",
				"wall-clock time.%s in deterministic library code; inject a clock, or //pqlint:allow walltime at a real time boundary",
				sel.Sel.Name)
		}
	})
}
