package analysis

import (
	"go/ast"
	"go/types"
)

// GlobalRandAnalyzer forbids the package-level math/rand API in library
// code. The process-global generator is shared mutable state seeded (or
// not) far from the call site, so any use breaks the invariant that every
// stochastic component of the pipeline is driven by an explicitly seeded,
// locally owned *rand.Rand. Constructors that build injectable generators
// (rand.New, rand.NewSource, rand.NewZipf) stay legal.
var GlobalRandAnalyzer = &Analyzer{
	Name: "globalrand",
	Doc:  "forbid package-level math/rand functions; inject a seeded *rand.Rand",
	Run:  runGlobalRand,
}

// globalRandAllowed are the math/rand package-level names that construct
// or feed injectable generators rather than touching the global one, plus
// the exported type names (types are what injection is made of).
var globalRandAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"Rand":       true,
	"Source":     true,
	"Source64":   true,
	"Zipf":       true,
	"PCG":        true, // math/rand/v2
	"ChaCha8":    true, // math/rand/v2
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func runGlobalRand(pass *Pass) {
	pass.Inspector().Preorder([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node) {
		sel := n.(*ast.SelectorExpr)
		if p := pass.pkgOf(sel); p != "math/rand" && p != "math/rand/v2" || globalRandAllowed[sel.Sel.Name] {
			return
		}
		// Exempt any remaining type reference (future rand types) — only
		// functions and variables touch the global generator.
		if _, isType := pass.TypesInfo.Uses[sel.Sel].(*types.TypeName); isType {
			return
		}
		pass.Reportf(sel.Pos(), "globalrand",
			"use of package-level rand.%s; inject an explicitly seeded *rand.Rand instead",
			sel.Sel.Name)
	})
}
