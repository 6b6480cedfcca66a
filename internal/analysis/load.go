package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
)

// The driver: load packages via `go list -deps -export -json` and
// analyze every non-dependency match from source. Imports resolve
// through the export data `go list -export` makes the toolchain produce,
// so no source beyond the analyzed package is ever re-type-checked.
// Test files are not loaded: every analyzer and the waiver scanner skip
// them anyway (Pass.InTestFile, CollectWaivers).
//
// `go list -deps` emits dependencies before dependents, which is exactly
// the order the fact store needs: one in-memory store threads through the
// walk, in-module dependency (DepOnly) packages get a facts-only pass so
// their exported-function facts are visible when their dependents are
// analyzed, and requested packages get the full waiver-filtered run.

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Module     *struct {
		Path      string
		GoVersion string
	}
}

// goList runs `go list` and decodes its JSON stream. With export set it
// lists transitive dependencies and builds export data (the analysis
// loader's and ExportFiles' mode); without, it is a cheap source-file
// listing of just the matched packages (the waiver lister's mode).
func goList(patterns []string, export bool) ([]*listPackage, error) {
	args := []string{"list"}
	if export {
		args = append(args, "-deps", "-export")
	}
	args = append(args, "-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,Module")
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// ExportFiles maps every package in the patterns' dependency closure to
// its compiler export-data file, building the data as needed — the
// importer input for NewExportImporter. analysistest resolves the
// standard library with it.
func ExportFiles(patterns ...string) (map[string]string, error) {
	pkgs, err := goList(patterns, true)
	if err != nil {
		return nil, err
	}
	return exportFiles(pkgs), nil
}

func exportFiles(pkgs []*listPackage) map[string]string {
	files := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			files[p.ImportPath] = p.Export
		}
	}
	return files
}

// CheckPackages loads the packages matching the `go list` patterns and
// runs the analyzers (with waiver filtering) over each non-dependency,
// non-standard-library match. It returns all surviving diagnostics in one
// position-sorted slice.
func CheckPackages(patterns []string, analyzers []*Analyzer) ([]Diagnostic, *token.FileSet, error) {
	pkgs, err := goList(patterns, true)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	imp := NewExportImporter(fset, exportFiles(pkgs))
	facts := NewFacts()
	var all []Diagnostic
	for _, p := range pkgs {
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		if p.DepOnly && p.Module == nil {
			continue // dependency outside any module: nothing to analyze
		}
		names := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			names[i] = filepath.Join(p.Dir, f)
		}
		files, err := ParseFiles(fset, names)
		if err != nil {
			return nil, nil, err
		}
		goVersion := ""
		if p.Module != nil && p.Module.GoVersion != "" {
			goVersion = "go" + p.Module.GoVersion
		}
		pkg, err := TypeCheck(fset, p.ImportPath, files, imp, goVersion)
		if err != nil {
			return nil, nil, err
		}
		if p.DepOnly {
			// Facts-only pass: the package was not requested, so its
			// diagnostics are not this run's business, but its exported
			// facts are its dependents'.
			if _, err := RunFacts(pkg, analyzers, facts); err != nil {
				return nil, nil, err
			}
			continue
		}
		diags, err := RunFactsWithWaivers(pkg, analyzers, facts)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, diags...)
	}
	sortDiagnostics(fset, all)
	return all, fset, nil
}

// ListWaivers parses the packages matching the patterns (source only —
// no type checking, no export data) and returns every waiver comment
// they contain, sorted by position. This backs `ecavet -waivers`,
// the audit listing DESIGN.md's waiver table is generated from.
func ListWaivers(patterns []string) ([]Waiver, error) {
	pkgs, err := goList(patterns, false)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var all []Waiver
	for _, p := range pkgs {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		names := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			names[i] = filepath.Join(p.Dir, f)
		}
		files, err := ParseFiles(fset, names)
		if err != nil {
			return nil, err
		}
		all = append(all, CollectWaivers(fset, files)...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return all, nil
}
