package analysis_test

import (
	"go/ast"
	"testing"

	"github.com/activedb/ecaagent/internal/analysis"
	"github.com/activedb/ecaagent/internal/analysis/analysistest"
)

// marked is a minimal fact-flowing analyzer: any function whose name
// starts with Marked exports a "marked" fact, and any call to a function
// carrying the fact is reported — including calls into *imported*
// fixture packages, which only works if the analysistest loader threads
// facts in dependency order like the go-list driver does.
var marked = &analysis.Analyzer{
	Name: "marked",
	Doc:  "test analyzer: flags calls to Marked* functions across packages",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil && len(fd.Name.Name) >= 6 && fd.Name.Name[:6] == "Marked" {
					pass.ExportFact(obj, "marked", "yes")
				}
			}
		}
		analysis.WalkFunctions(pass.Files, func(n ast.Node, _ []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			var id *ast.Ident
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			default:
				return
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil {
				return
			}
			if _, ok := pass.LookupFact(obj, "marked"); ok {
				pass.Reportf(call.Pos(), "call to marked function %s", id.Name)
			}
		})
		return nil
	},
}

// TestFactsFlowAcrossFixturePackages: the factuse fixture imports
// factdep; the fact exported on factdep.MarkedDep must be visible when
// factuse is analyzed.
func TestFactsFlowAcrossFixturePackages(t *testing.T) {
	analysistest.Run(t, "testdata", marked, "factuse")
}
