package lint

import (
	"go/ast"
	"go/types"
)

// ExportOrder protects the byte-identity contract on exported artifacts
// (sweep JSON compared across serial and parallel executors, trace
// and time-series exports, committed BENCH_*.json files): in the
// export/bench packages it flags encoding/json marshaling of raw
// map-typed values.
//
// encoding/json does sort string keys, but the repo's exports are
// diffed byte-for-byte across executors and Go versions, so their row
// order must be explicit in the code — a sorted slice of rows — not
// delegated to a marshaler's conventions. Non-string keys additionally
// round-trip through each type's own text marshaling. Build a sorted
// slice (see timeseries/export.go) instead of handing a map to json.
var ExportOrder = &Analyzer{
	Name: "exportorder",
	Doc: "flag json marshaling of raw map values in export/bench " +
		"paths; emit explicitly sorted rows instead",
	Run: runExportOrder,
}

func runExportOrder(pass *Pass) {
	if !InExportPath(pass.PkgPath()) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
				return true
			}
			switch fn.Name() {
			case "Marshal", "MarshalIndent", "Encode":
			default:
				return true
			}
			arg := call.Args[0]
			tv, ok := pass.TypesInfo.Types[arg]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				pass.Reportf(arg.Pos(),
					"json.%s of raw map %s leaves row order to the marshaler; byte-identity contracts require an explicitly sorted slice of rows",
					fn.Name(), types.ExprString(arg))
			}
			return true
		})
	}
}
