package lint

import (
	"go/ast"
	"go/types"
)

// SimDeterminism enforces the byte-identity contract inside the
// deterministic core (DeterministicPackages): repeated and parallel-cell
// runs of the same seed must produce identical output, so nothing in
// those packages may read wall clocks, draw from the process-global
// math/rand source, or iterate a map in hash order.
//
// Justified exceptions — e.g. profiling that observes wall time but never
// feeds it back into event order — carry a
// //prefill:allow(simdeterminism): <reason> annotation.
var SimDeterminism = &Analyzer{
	Name: "simdeterminism",
	Doc: "flag time.Now/Since/Until, global math/rand, and map iteration " +
		"in the deterministic sim packages",
	Run: runSimDeterminism,
}

// wallClockFuncs are the time-package functions that read the wall
// clock. Constructors like NewTimer are irrelevant here: the sim has no
// goroutine timers, and any wall reading routes through these three.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// seededRandFuncs are the math/rand package-level functions that do NOT
// touch the global source: they build or parameterize an explicitly
// seeded generator, which is the sanctioned pattern.
var seededRandFuncs = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func runSimDeterminism(pass *Pass) {
	if !InDeterministicSet(pass.PkgPath()) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(pass.TypesInfo, n)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				sig, _ := fn.Type().(*types.Signature)
				pkgLevel := sig != nil && sig.Recv() == nil
				switch fn.Pkg().Path() {
				case "time":
					if pkgLevel && wallClockFuncs[fn.Name()] {
						pass.Reportf(n.Pos(),
							"time.%s reads the wall clock inside the deterministic sim core; derive times from the sim clock", fn.Name())
					}
				case "math/rand", "math/rand/v2":
					if pkgLevel && !seededRandFuncs[fn.Name()] {
						pass.Reportf(n.Pos(),
							"rand.%s draws from the process-global source; use rand.New(rand.NewSource(seed)) so runs replay byte-identically", fn.Name())
					}
				}
			case *ast.RangeStmt:
				tv, ok := pass.TypesInfo.Types[n.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(),
						"range over map %s iterates in randomized hash order inside the deterministic sim core; iterate sorted keys, or annotate if provably order-insensitive",
						types.ExprString(n.X))
				}
			}
			return true
		})
	}
}
