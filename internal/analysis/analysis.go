// Package analysis is ecavet's dependency-free analyzer framework: a
// structural twin of golang.org/x/tools/go/analysis, reimplemented on the
// standard library's go/ast, go/token and go/types so the repo keeps its
// zero-dependency go.mod (the container this grows in has no module
// network). An Analyzer inspects one type-checked package and reports
// Diagnostics; two loaders supply the packages and collect the output:
// the `go list` driver in load.go, which cmd/ecavet runs over the module,
// and the analysistest fixture runner.
//
// The suite mechanizes the invariants the differential test suites only
// probe probabilistically: determinism (nowallclock), the durable-publish
// protocol (fsyncorder), lock discipline (lockguard), durability error
// handling (syncerr) and registration-time metrics (obsreg). DESIGN.md §9
// catalogues each analyzer and the suite it backstops.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. Run inspects a single
// type-checked package via the Pass and reports findings with
// Pass.Reportf; it returns an error only for internal failures (a broken
// invariant is a Diagnostic, not an error).
type Analyzer struct {
	Name string // short lower-case identifier, used in waiver comments (//ecavet:allow name reason)
	Doc  string // one-paragraph description of the invariant enforced
	Run  func(*Pass) error
}

// A Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts is the cross-package fact store (never nil): facts exported
	// by this analyzer in dependency packages are visible through
	// LookupFact, and ExportFact publishes for dependents. See facts.go.
	Facts *Facts

	report func(Diagnostic)
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. Every ecavet
// analyzer skips test files: tests may freely use the wall clock, drop
// errors and poke guarded state — the invariants protect production code.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Package bundles one loaded, type-checked package for the drivers.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// RunFacts executes the analyzers over pkg against the given fact store:
// facts dependency packages exported are visible to the analyzers, and
// facts they export land in the store for dependents. The raw
// diagnostics come back in position order; pass them to ApplyWaivers (or
// discard them — a facts-only pass over a dependency) as the driver
// requires.
func RunFacts(pkg *Package, analyzers []*Analyzer, facts *Facts) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Facts:     facts,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sortDiagnostics(pkg.Fset, diags)
	return diags, nil
}

// RunFactsWithWaivers is RunFacts plus the waiver protocol
// (//ecavet:allow name reason): suppressed findings vanish, while
// malformed waivers, waivers naming unknown analyzers and stale waivers
// (suppressing nothing) are themselves reported under the waiverstale
// analyzer. This is what the driver reports — raw RunFacts is for
// analysistest fixtures that assert pre-waiver findings and for
// facts-only passes over dependencies.
func RunFactsWithWaivers(pkg *Package, analyzers []*Analyzer, facts *Facts) ([]Diagnostic, error) {
	diags, err := RunFacts(pkg, analyzers, facts)
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	waivers := CollectWaivers(pkg.Fset, pkg.Files)
	diags = ApplyWaivers(pkg.Fset, diags, waivers, known)
	sortDiagnostics(pkg.Fset, diags)
	return diags, nil
}

func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}

// WalkFunctions visits every function body in the files, giving the
// callback the stack of enclosing functions (outermost first, innermost
// last) for each node. FuncDecl and FuncLit both count as functions; the stack lets
// analyzers resolve "the enclosing function" (innermost) or scan outward
// (lock inheritance into closures).
func WalkFunctions(files []*ast.File, visit func(n ast.Node, funcStack []ast.Node)) {
	for _, f := range files {
		var stack []ast.Node
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				visit(n, stack)
				stack = append(stack, n)
				// Walk children manually so the pop happens at the right
				// time.
				for _, c := range childNodes(n) {
					ast.Inspect(c, walk)
				}
				stack = stack[:len(stack)-1]
				return false
			}
			if n != nil {
				visit(n, stack)
			}
			return true
		}
		ast.Inspect(f, walk)
	}
}

// childNodes returns the walkable children of a function node.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	switch fn := n.(type) {
	case *ast.FuncDecl:
		if fn.Recv != nil {
			out = append(out, fn.Recv)
		}
		out = append(out, fn.Type)
		if fn.Body != nil {
			out = append(out, fn.Body)
		}
	case *ast.FuncLit:
		out = append(out, fn.Type)
		if fn.Body != nil {
			out = append(out, fn.Body)
		}
	}
	return out
}

// FuncName names a function node for messages: the declared name for a
// FuncDecl, "func literal" otherwise.
func FuncName(n ast.Node) string {
	if d, ok := n.(*ast.FuncDecl); ok {
		return d.Name.Name
	}
	return "func literal"
}

// ReceiverTypeName extracts the receiver's type name from a method
// declaration ("" for plain functions): used by nowallclock to whitelist
// the realClock implementation.
func ReceiverTypeName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// PackageTargeted reports whether path is, or is beneath, one of the
// target package paths. Analyzers that only apply to the deterministic or
// durable core use it with their exported target lists, which fixtures
// extend.
func PackageTargeted(path string, targets []string) bool {
	for _, t := range targets {
		if path == t || strings.HasPrefix(path, t+"/") {
			return true
		}
	}
	return false
}
