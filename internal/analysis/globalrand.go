package analysis

import (
	"go/ast"
	"go/types"
	"strings"
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
	// Fallback for files whose type info is partial: the local names
	// under which math/rand is imported, per file.
	randNames := make(map[*ast.File]map[string]bool, len(pass.Files))
	for _, f := range pass.Files {
		names := map[string]bool{}
		for _, spec := range f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			if path != "math/rand" && path != "math/rand/v2" {
				continue
			}
			name := "rand"
			if spec.Name != nil {
				name = spec.Name.Name
			}
			if name != "_" && name != "." {
				names[name] = true
			}
		}
		randNames[f] = names
	}
	pass.Inspector().WithStack([]ast.Node{(*ast.SelectorExpr)(nil)},
		func(n ast.Node, push bool, stack []ast.Node) bool {
			if !push {
				return true
			}
			sel := n.(*ast.SelectorExpr)
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			isRandPkg := false
			if obj, ok := pass.TypesInfo.Uses[id]; ok {
				pn, ok := obj.(*types.PkgName)
				if !ok {
					return true // a value (e.g. an injected rng), not a package
				}
				p := pn.Imported().Path()
				isRandPkg = p == "math/rand" || p == "math/rand/v2"
			} else if f, ok := stack[0].(*ast.File); ok {
				isRandPkg = randNames[f][id.Name]
			}
			if !isRandPkg || globalRandAllowed[sel.Sel.Name] {
				return true
			}
			// Exempt any remaining type reference (future rand types) —
			// only functions and variables touch the global generator.
			if obj, ok := pass.TypesInfo.Uses[sel.Sel]; ok {
				if _, isType := obj.(*types.TypeName); isType {
					return true
				}
			}
			pass.Reportf(sel.Pos(), "globalrand",
				"use of package-level rand.%s; inject an explicitly seeded *rand.Rand instead",
				sel.Sel.Name)
			return true
		})
}
