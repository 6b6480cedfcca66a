// Package analysistest runs ecavet analyzers over fixture packages and
// checks their diagnostics against // want comments — a stdlib-only
// reimplementation of the x/tools package of the same name, for the same
// fixture layout: testdata/src/<importpath>/*.go, where fixture packages
// may import each other (resolved from testdata/src) and the standard
// library (resolved from `go list -export` data).
//
// A want comment asserts the diagnostics on its line:
//
//	time.Sleep(d) // want `wall clock`
//	x.Close()     // want "discards the error" "second finding"
//
// Each quoted string (Go double-quoted or backquoted syntax) is a regular
// expression that must match exactly one diagnostic message reported on
// that line; unmatched expectations and unexpected diagnostics both fail
// the test.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/activedb/ecaagent/internal/analysis"
)

// Run analyzes the fixture packages with a single analyzer and checks its
// raw (pre-waiver) diagnostics against the fixtures' want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	run(t, testdata, []*analysis.Analyzer{a}, paths, false)
}

// RunWithWaivers analyzes the fixture packages with the full waiver
// pipeline: //ecavet:allow comments suppress findings, and malformed,
// unknown-analyzer and stale waivers surface as waiverstale diagnostics.
// The want comments assert the post-waiver output.
func RunWithWaivers(t *testing.T, testdata string, analyzers []*analysis.Analyzer, paths ...string) {
	t.Helper()
	run(t, testdata, analyzers, paths, true)
}

func run(t *testing.T, testdata string, analyzers []*analysis.Analyzer, paths []string, waivers bool) {
	t.Helper()
	ld := newLoader(t, testdata, analyzers)
	for _, path := range paths {
		pkg := ld.load(path)
		var diags []analysis.Diagnostic
		var err error
		if waivers {
			diags, err = analysis.RunFactsWithWaivers(pkg, analyzers, ld.facts)
		} else {
			diags, err = analysis.RunFacts(pkg, analyzers, ld.facts)
		}
		if err != nil {
			t.Fatalf("analyzing %s: %v", path, err)
		}
		checkWants(t, ld.fset, pkg.Files, diags)
	}
}

// loader resolves fixture packages from testdata/src and everything else
// from toolchain export data. As each fixture package loads, the
// analyzers under test get a facts-only pass over it into the shared
// store — the recursion through loaderImporter loads imports first, so
// facts flow in dependency order exactly as in the go-list driver.
type loader struct {
	t         *testing.T
	src       string // testdata/src
	fset      *token.FileSet
	pkgs      map[string]*analysis.Package
	checking  map[string]bool
	std       types.Importer
	analyzers []*analysis.Analyzer
	facts     *analysis.Facts
}

func newLoader(t *testing.T, testdata string, analyzers []*analysis.Analyzer) *loader {
	ld := &loader{
		t:         t,
		src:       filepath.Join(testdata, "src"),
		fset:      token.NewFileSet(),
		pkgs:      make(map[string]*analysis.Package),
		checking:  make(map[string]bool),
		analyzers: analyzers,
		facts:     analysis.NewFacts(),
	}
	ld.std = analysis.NewExportImporter(ld.fset, stdExportFiles)
	return ld
}

func (ld *loader) load(path string) *analysis.Package {
	ld.t.Helper()
	if p, ok := ld.pkgs[path]; ok {
		return p
	}
	if ld.checking[path] {
		ld.t.Fatalf("fixture import cycle through %s", path)
	}
	ld.checking[path] = true
	defer delete(ld.checking, path)

	dir := filepath.Join(ld.src, filepath.FromSlash(path))
	ents, err := os.ReadDir(dir)
	if err != nil {
		ld.t.Fatalf("fixture package %s: %v", path, err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, name, nil, parser.ParseComments)
		if err != nil {
			ld.t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: (*loaderImporter)(ld)}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		ld.t.Fatalf("type-checking fixture %s: %v", path, err)
	}
	p := &analysis.Package{Path: path, Fset: ld.fset, Files: files, Types: tpkg, Info: info}
	ld.pkgs[path] = p
	// Facts-only pass: exported facts become visible to fixture packages
	// that import this one. The pass over the target package in run() will
	// re-derive the same facts — map puts are idempotent.
	if _, err := analysis.RunFacts(p, ld.analyzers, ld.facts); err != nil {
		ld.t.Fatalf("facts pass over fixture %s: %v", path, err)
	}
	return p
}

// loaderImporter adapts loader to types.ImporterFrom.
type loaderImporter loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	ld := (*loader)(li)
	if st, err := os.Stat(filepath.Join(ld.src, filepath.FromSlash(path))); err == nil && st.IsDir() {
		return ld.load(path).Types, nil
	}
	if err := ensureStdExport(path); err != nil {
		return nil, err
	}
	return ld.std.Import(path)
}

// stdExportFiles maps import paths to compiler export-data files,
// populated lazily by `go list -deps -export` and shared across every
// test in the process (the paths live in the build cache and are stable
// for a given toolchain + GOFLAGS).
var (
	stdExportMu    sync.Mutex
	stdExportFiles = make(map[string]string)
)

func ensureStdExport(path string) error {
	stdExportMu.Lock()
	defer stdExportMu.Unlock()
	if _, ok := stdExportFiles[path]; ok {
		return nil
	}
	files, err := analysis.ExportFiles(path)
	if err != nil {
		return err
	}
	for p, file := range files {
		stdExportFiles[p] = file
	}
	if _, ok := stdExportFiles[path]; !ok && path != "unsafe" {
		return fmt.Errorf("go list produced no export data for %q", path)
	}
	return nil
}

// wantRE matches a want comment's payload.
var wantRE = regexp.MustCompile(`//\s*want\s+(.+)$`)

type expectation struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

// checkWants diffs diagnostics against the fixtures' want comments.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*expectation)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, raw := range splitQuoted(t, pos, m[1]) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
					}
					wants[k] = append(wants[k], &expectation{re: re, raw: raw})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		found := false
		for _, exp := range wants[k] {
			if !exp.matched && exp.re.MatchString(d.Message) {
				exp.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s [%s]", pos, d.Message, d.Analyzer)
		}
	}
	var keys []key
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, exp := range wants[k] {
			if !exp.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, exp.raw)
			}
		}
	}
}

// splitQuoted parses a sequence of Go string literals ("..." or `...`).
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) {
				if s[end] == '\\' {
					end += 2
					continue
				}
				if s[end] == '"' {
					break
				}
				end++
			}
			if end >= len(s) {
				t.Fatalf("%s: unterminated want string: %s", pos, s)
			}
			unq, err := strconv.Unquote(s[:end+1])
			if err != nil {
				t.Fatalf("%s: bad want string %s: %v", pos, s[:end+1], err)
			}
			out = append(out, unq)
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated want string: %s", pos, s)
			}
			out = append(out, s[1:end+1])
			s = strings.TrimSpace(s[end+2:])
		default:
			t.Fatalf("%s: want expects quoted regexps, got %q", pos, s)
		}
	}
	return out
}
