package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// HotPathAlloc guards the zero-alloc event discipline:
//
//  1. In the scheduling hot-path packages (cluster, engine, sched),
//     passing a function literal or a bound method value to any
//     sim-package scheduling call allocates a closure per event — the
//     regression the AtFunc/AfterFunc fast path (package-level
//     callback + payload argument) exists to avoid.
//  2. In the whole deterministic core, importing container/heap is
//     flagged outside HeapAllowedPackages: its interface-typed Push/Pop
//     box every element, which is why both the sim event heap and the
//     sched indexed heap are hand-rolled value heaps.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: "flag closure arguments to sim scheduling calls in cluster/engine/sched " +
		"and container/heap imports in the deterministic core",
	Run: runHotPathAlloc,
}

// schedulingFuncs are the sim-package calls that enqueue events.
var schedulingFuncs = map[string]bool{
	"At": true, "After": true, "AtFunc": true, "AfterFunc": true, "ObserveAt": true,
}

func runHotPathAlloc(pass *Pass) {
	path := pass.PkgPath()
	if InDeterministicSet(path) && !HeapImportAllowed(path) {
		for _, f := range pass.Files {
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil || p != "container/heap" {
					continue
				}
				pass.Reportf(imp.Pos(),
					"container/heap boxes every Push/Pop element through interface{}; use a value-based heap like the sim event heap")
			}
		}
	}
	if !InHotPath(path) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || !IsSimPackage(fn.Pkg().Path()) || !schedulingFuncs[fn.Name()] {
				return true
			}
			for _, arg := range call.Args {
				switch a := ast.Unparen(arg).(type) {
				case *ast.FuncLit:
					pass.Reportf(a.Pos(),
						"function literal passed to sim.%s allocates a closure per event (PR 5 closure-boxing regression); use a package-level callback with AtFunc/AfterFunc and a payload argument", fn.Name())
				case *ast.SelectorExpr:
					if isMethodValue(pass.TypesInfo, a) {
						pass.Reportf(a.Pos(),
							"bound method value passed to sim.%s allocates a closure per event; use a package-level callback with AtFunc/AfterFunc and the receiver as payload", fn.Name())
					}
				}
			}
			return true
		})
	}
}

// isMethodValue reports whether sel is a method-value expression like
// x.done (which allocates a bound closure), as opposed to a field read
// or a qualified package identifier.
func isMethodValue(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	return ok && s.Kind() == types.MethodVal
}
