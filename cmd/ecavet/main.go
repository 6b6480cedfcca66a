// Command ecavet is the repo's static-analysis suite: nine analyzers that
// mechanize the agent's determinism, durability, concurrency, fencing
// and resource-lifecycle invariants (DESIGN.md §9).
//
// It loads packages through `go list -deps -export` and analyzes each
// requested package from source, resolving imports from the export data
// that command builds. `make lint` runs it over the module, and it lists
// the waiver ledger for audits:
//
//	go build -o bin/ecavet ./cmd/ecavet
//	bin/ecavet ./...
//	bin/ecavet -waivers ./...
//
// Findings and waivers print with file names relative to the working
// directory. The exit status is 2 when there are findings and 1 when the
// packages cannot be loaded.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/activedb/ecaagent/internal/analysis"
	"github.com/activedb/ecaagent/internal/analysis/fencedwrite"
	"github.com/activedb/ecaagent/internal/analysis/fsyncorder"
	"github.com/activedb/ecaagent/internal/analysis/goroleak"
	"github.com/activedb/ecaagent/internal/analysis/iodeadline"
	"github.com/activedb/ecaagent/internal/analysis/lockguard"
	"github.com/activedb/ecaagent/internal/analysis/nowallclock"
	"github.com/activedb/ecaagent/internal/analysis/obsreg"
	"github.com/activedb/ecaagent/internal/analysis/syncerr"
	"github.com/activedb/ecaagent/internal/analysis/waiverstale"
)

// Suite is the full analyzer set, in the order findings are reported:
// the five syntactic tier-1 passes, then the three CFG/facts tier-2
// passes, then the waiver-ledger check.
var suite = []*analysis.Analyzer{
	nowallclock.Analyzer,
	fsyncorder.Analyzer,
	lockguard.Analyzer,
	syncerr.Analyzer,
	obsreg.Analyzer,
	fencedwrite.Analyzer,
	goroleak.Analyzer,
	iodeadline.Analyzer,
	waiverstale.Analyzer,
}

func main() {
	args := os.Args[1:]
	switch {
	case len(args) > 1 && args[0] == "-waivers":
		os.Exit(listWaivers(args[1:]))
	case len(args) > 0:
		os.Exit(check(args))
	default:
		fmt.Fprintln(os.Stderr, `usage: ecavet <packages>            (e.g. ecavet ./...)
   or: ecavet -waivers <packages>   (list every //ecavet:allow waiver)`)
		os.Exit(2)
	}
}

// check runs the suite over `go list` package patterns and prints one
// line per finding.
func check(patterns []string) int {
	diags, fset, err := analysis.CheckPackages(patterns, suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ecavet: %v\n", err)
		return 1
	}
	wd, _ := os.Getwd()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		pos.Filename = relative(wd, pos.Filename)
		fmt.Printf("%s: %s [%s]\n", pos, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// listWaivers implements `ecavet -waivers <patterns>`: one line per
// //ecavet:allow comment — file:line, analyzer, reason, tab-separated —
// for DESIGN.md's waiver audit table and the lint-fix-check budget gate.
// Malformed waivers print with analyzer "MALFORMED" (they will also fail
// the lint run itself).
func listWaivers(patterns []string) int {
	waivers, err := analysis.ListWaivers(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ecavet: %v\n", err)
		return 1
	}
	wd, _ := os.Getwd()
	for _, w := range waivers {
		name, reason := w.Analyzer, w.Reason
		if name == "" {
			name, reason = "MALFORMED", "-"
		}
		fmt.Printf("%s:%d\t%s\t%s\n", relative(wd, w.File), w.Line, name, reason)
	}
	return 0
}

// relative shortens a file name to its path from the working directory
// when the file lies beneath it; other names print as they are.
func relative(wd, name string) string {
	if rel, err := filepath.Rel(wd, name); err == nil && filepath.IsLocal(rel) {
		return rel
	}
	return name
}
