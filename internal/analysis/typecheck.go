package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
)

// NewExportImporter builds a types importer that resolves imports from
// the compiler export-data files `go list -export` reports, keyed by
// import path (ExportFiles).
func NewExportImporter(fset *token.FileSet, exportFiles map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exportFiles[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// ParseFiles parses the named Go files with comments (the waiver scanner
// and lockguard's guarded-by annotations live in comments).
func ParseFiles(fset *token.FileSet, filenames []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// NewInfo allocates a types.Info with every map analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// TypeCheck type-checks one package's parsed files into a Package ready
// for RunFacts. goVersion may be "" (the toolchain default) or a "go1.N"
// string from go.mod.
func TypeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer, goVersion string) (*Package, error) {
	info := NewInfo()
	conf := types.Config{
		Importer:  imp,
		GoVersion: goVersion,
		Error:     func(error) {}, // collect just the first hard error below
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: pkg, Info: info}, nil
}
