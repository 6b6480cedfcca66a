package analysis

import "go/types"

// Facts is the cross-package fact store — the mechanism that lets an
// analyzer learn something about an *imported* function without
// re-analyzing its source (mirroring x/tools' analysis facts, string-
// valued and keyed by package-qualified object). An analyzer exports a
// fact on an object it analyzed (Pass.ExportFact) and looks facts up on
// objects its package references (Pass.LookupFact). The store lives in
// memory for one run, and both loaders fill it in dependency order:
//
//   - the go-list driver (load.go) analyzes in `go list -deps` order
//     (dependencies first) and threads one store through the walk,
//     running a facts-only pass over in-module packages that are
//     dependencies of the requested patterns;
//   - the analysistest loader runs a facts-only pass over every fixture
//     package as it loads, so fixture imports behave like real imports.
//
// Facts are scoped by analyzer name, so two analyzers can hang a fact of
// the same name on the same object without colliding.
type Facts struct {
	m map[factKey]string
}

type factKey struct {
	Analyzer string
	Object   string // ObjectKey of the fact's subject
	Name     string
}

// NewFacts returns an empty store.
func NewFacts() *Facts { return &Facts{m: make(map[factKey]string)} }

func (f *Facts) put(analyzer, object, name, value string) {
	if object == "" {
		return
	}
	f.m[factKey{analyzer, object, name}] = value
}

func (f *Facts) get(analyzer, object, name string) (string, bool) {
	v, ok := f.m[factKey{analyzer, object, name}]
	return v, ok
}

// Len reports the number of stored facts.
func (f *Facts) Len() int { return len(f.m) }

// ObjectKey names a package-level object (or method) stably across
// compilations: "pkgpath.Name" for functions, vars and types,
// "pkgpath.Recv.Name" for methods. Objects without a package (builtins,
// locals via nil) key to "" and are silently unexportable.
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
			}
			return "" // method on an unnamed receiver (interface literal)
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// ExportFact records a fact about obj under the running analyzer's
// scope. Facts on objects that cannot be keyed (no package) are dropped.
func (p *Pass) ExportFact(obj types.Object, name, value string) {
	p.Facts.put(p.Analyzer.Name, ObjectKey(obj), name, value)
}

// LookupFact retrieves a fact previously exported for obj by this same
// analyzer — in this package's pass or in any dependency's.
func (p *Pass) LookupFact(obj types.Object, name string) (string, bool) {
	return p.Facts.get(p.Analyzer.Name, ObjectKey(obj), name)
}
