package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// TestObjectKey: functions key as pkgpath.Name, methods as
// pkgpath.Recv.Name (pointer receivers deref), nil keys to "".
func TestObjectKey(t *testing.T) {
	src := `package q

func F() {}

type T struct{}

func (t *T) M() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "q.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	conf := types.Config{}
	pkg, err := conf.Check("example.com/q", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k := ObjectKey(pkg.Scope().Lookup("F")); k != "example.com/q.F" {
		t.Errorf("function key = %q", k)
	}
	tObj := pkg.Scope().Lookup("T").(*types.TypeName)
	named := tObj.Type().(*types.Named)
	if k := ObjectKey(named.Method(0)); k != "example.com/q.T.M" {
		t.Errorf("method key = %q", k)
	}
	if k := ObjectKey(nil); k != "" {
		t.Errorf("nil key = %q", k)
	}
}
