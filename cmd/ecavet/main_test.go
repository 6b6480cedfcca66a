package main

import (
	"os/exec"
	"strings"
	"testing"

	"github.com/activedb/ecaagent/internal/analysis"
	"github.com/activedb/ecaagent/internal/analysis/fencedwrite"
	"github.com/activedb/ecaagent/internal/analysis/fsyncorder"
	"github.com/activedb/ecaagent/internal/analysis/goroleak"
	"github.com/activedb/ecaagent/internal/analysis/iodeadline"
	"github.com/activedb/ecaagent/internal/analysis/nowallclock"
	"github.com/activedb/ecaagent/internal/analysis/syncerr"
)

// TestSuiteCleanOnRepo dogfoods the suite over the whole module: every
// invariant holds (or carries a reasoned waiver) and no waiver is stale.
// A finding here is a regression in the codebase, not in the analyzers.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes the whole module")
	}
	diags, fset, err := analysis.CheckPackages([]string{"github.com/activedb/ecaagent/..."}, suite)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s [%s]", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		t.Log("fix the finding or add //ecavet:allow <analyzer> <reason> at the site")
	}
}

// TestSuiteNames pins the analyzer names the waiver syntax depends on:
// renaming one silently orphans every //ecavet:allow referring to it.
func TestSuiteNames(t *testing.T) {
	want := []string{
		"nowallclock", "fsyncorder", "lockguard", "syncerr", "obsreg",
		"fencedwrite", "goroleak", "iodeadline", "waiverstale",
	}
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("suite[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("%s has no Doc", a.Name)
		}
	}
}

// TestAnalyzerScopesExist guards the hard-coded target lists against
// drift: PackageTargeted matches by prefix, so a renamed or moved package
// would silently fall out of its analyzer's scope. Every entry must still
// cover at least one package in the module.
func TestAnalyzerScopesExist(t *testing.T) {
	if testing.Short() {
		t.Skip("lists every package in the module")
	}
	out, err := exec.Command("go", "list", "github.com/activedb/ecaagent/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	pkgs := strings.Fields(string(out))
	scopes := map[string][]string{
		"fencedwrite.FencedPackages":        fencedwrite.FencedPackages,
		"fsyncorder.DurablePackages":        fsyncorder.DurablePackages,
		"goroleak.GoroPackages":             goroleak.GoroPackages,
		"iodeadline.ConnPackages":           iodeadline.ConnPackages,
		"nowallclock.DeterministicPackages": nowallclock.DeterministicPackages,
		"syncerr.DurablePackages":           syncerr.DurablePackages,
	}
	for name, targets := range scopes {
		for _, target := range targets {
			covered := false
			for _, p := range pkgs {
				if analysis.PackageTargeted(p, []string{target}) {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("%s entry %q matches no package in the module", name, target)
			}
		}
	}
}
