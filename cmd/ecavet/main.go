// Command ecavet is the repo's static-analysis suite: nine analyzers that
// mechanize the agent's determinism, durability, concurrency, fencing
// and resource-lifecycle invariants (DESIGN.md §9).
//
// It speaks the `go vet -vettool` protocol, so the supported invocation
// is the one `make lint` uses:
//
//	go build -o bin/ecavet ./cmd/ecavet
//	go vet -vettool=bin/ecavet ./...
//
// which gives per-package caching and exact export data from the build.
// It also runs standalone over `go list` patterns for ad-hoc use, and
// lists the waiver ledger for audits:
//
//	go run ./cmd/ecavet ./internal/agent
//	go run ./cmd/ecavet -waivers ./...
package main

import (
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
	analysis.Main(suite)
}
