// Package nowallclock forbids wall-clock reads in the deterministic core.
//
// The invariant: every package whose behavior must be reproducible under
// replay — the LED (snapshot/restore and the golden operator-stream
// suite), the Snoop machinery, and the agent's
// recovery/replay path (the crash-differential suite) — routes all time
// through the Clock seam (led.Clock). A raw time.Now() there produces
// occurrences, action keys or metrics that differ between a live run and
// its replay, which the differential suites would only catch
// probabilistically. This analyzer makes it a build error.
//
// Whitelisted: _test.go files (ManualClock tests drive time explicitly
// and may also use the real clock for deadlines) and methods of the
// realClock type — the one place the seam touches the wall clock by
// definition.
package nowallclock

import (
	"go/ast"
	"go/types"

	"github.com/activedb/ecaagent/internal/analysis"
)

// DeterministicPackages lists the package paths (and, implicitly, their
// subpackages) the invariant covers. Exported so fixture tests can
// temporarily extend it.
var DeterministicPackages = []string{
	"github.com/activedb/ecaagent/internal/led",
	"github.com/activedb/ecaagent/internal/snoop",
	"github.com/activedb/ecaagent/internal/agent",
	"github.com/activedb/ecaagent/internal/cluster",
}

// forbidden are the time-package functions that read or schedule against
// the wall clock. time.Time arithmetic (Sub, Add, Before) and
// constructors from explicit data (time.Unix, time.Date) are pure and
// stay allowed.
var forbidden = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
	"Tick":      true,
	"Since":     true,
	"Until":     true,
}

// Analyzer is the nowallclock pass.
var Analyzer = &analysis.Analyzer{
	Name: "nowallclock",
	Doc:  "forbid wall-clock reads (time.Now etc.) outside the Clock seam in deterministic packages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PackageTargeted(pass.Pkg.Path(), DeterministicPackages) {
		return nil
	}
	analysis.WalkFunctions(pass.Files, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || pass.InTestFile(call.Pos()) {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "time" || !forbidden[obj.Name()] {
			return
		}
		// Methods share names with the package functions (Time.After vs
		// time.After) but are pure value arithmetic — only the package
		// functions touch the wall clock.
		if obj.Type().(*types.Signature).Recv() != nil {
			return
		}
		// The seam's own implementation is the one sanctioned caller.
		for _, fn := range stack {
			if d, ok := fn.(*ast.FuncDecl); ok && analysis.ReceiverTypeName(d) == "realClock" {
				return
			}
		}
		pass.Reportf(call.Pos(),
			"wall clock: time.%s in deterministic package %s; route it through the Clock seam (led.Clock) or waive with //ecavet:allow nowallclock <reason>",
			obj.Name(), pass.Pkg.Path())
	})
	return nil
}
