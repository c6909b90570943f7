// Package hotpath flags per-element etc.Instance.ETC calls in the
// repo's hot packages. The slice accessor TaskCosts is the sanctioned
// way to read costs on hot paths: a per-element call inside a loop
// re-derives the element address and defeats bounds-check elimination
// and vectorization-friendly code the batched kernels rely on. The pass flags such calls inside loop
// bodies, and inside function literals (hot-package closures are event
// and per-candidate callbacks — a call there runs per iteration even
// though no loop encloses it lexically).
package hotpath

import (
	"go/ast"

	"gridsched/internal/lint/analysis"
	"gridsched/internal/lint/analyzers/lintutil"
)

// Analyzer is the hotpath pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "flags per-element Instance.ETC calls in hot-package loops and closures; read through the TaskCosts slice accessor",
	Run:  run,
}

// hotPackages are the packages whose inner loops dominate solve time.
var hotPackages = map[string]bool{
	"gridsched/internal/heuristics": true,
	"gridsched/internal/tabu":       true,
	"gridsched/internal/schedule":   true,
	"gridsched/internal/core":       true,
	"gridsched/internal/operators":  true,
	"gridsched/internal/gridsim":    true,
}

const etcPkg = "gridsched/internal/etc"

func run(pass *analysis.Pass) error {
	if !hotPackages[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		checkNode(pass, f, false, false)
	}
	return nil
}

// checkNode walks n tracking whether the current position is inside a
// loop body or a function literal.
func checkNode(pass *analysis.Pass, n ast.Node, inLoop, inFuncLit bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if n.Init != nil {
				checkNode(pass, n.Init, inLoop, inFuncLit)
			}
			if n.Cond != nil {
				checkNode(pass, n.Cond, inLoop, inFuncLit)
			}
			if n.Post != nil {
				checkNode(pass, n.Post, inLoop, inFuncLit)
			}
			checkNode(pass, n.Body, true, inFuncLit)
			return false
		case *ast.RangeStmt:
			checkNode(pass, n.X, inLoop, inFuncLit)
			checkNode(pass, n.Body, true, inFuncLit)
			return false
		case *ast.FuncLit:
			checkNode(pass, n.Body, false, true)
			return false
		case *ast.CallExpr:
			recv, method, ok := lintutil.MethodCall(n)
			if !ok || method != "ETC" {
				return true
			}
			if !lintutil.IsNamed(lintutil.TypeOf(pass.TypesInfo, recv), etcPkg, "Instance") {
				return true
			}
			switch {
			case inLoop:
				pass.Reportf(n.Pos(), "per-element %s call in a hot-package loop; read through the TaskCosts slice accessor instead", method)
			case inFuncLit:
				pass.Reportf(n.Pos(), "per-element %s call in a hot-package function literal (closures here run per event); read through the TaskCosts slice accessor instead", method)
			}
			return true
		}
		return true
	})
}
