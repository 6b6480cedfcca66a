// Command bench is the repository's benchmark: it stands up the paper's
// deployment (client -> gateway -> server -> native trigger -> UDP ->
// notifier -> LED -> action procedure, Figure 4) in one process over real
// loopback sockets, drives it with one of six workloads, checks the outputs
// and reports the metrics BENCHMARK.json names. See README.md.
//
//	go run ./bench --workload rule_loop --seed 1 --seconds 10 --trace 0
//	    one run; the last line of standard output is the result object
//	go run ./bench [-runs 10] [-out set.json]
//	    every workload -runs times untraced, then once traced, each run in
//	    its own process
//	go run ./bench -compare A.json B.json
//	    two result sets against the bounds in BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: the whole suite, one process per run)")
		seed    = flag.Int64("seed", 1, "the only source of symbols, prices and the arrival schedule")
		seconds = flag.Float64("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1: stamp the loop at the benchmark's seams and report the per-layer metrics instead")
		runs    = flag.Int("runs", 10, "suite: untraced runs per workload, on consecutive seeds")
		outPath = flag.String("out", "", "suite: write the result set to this file")
		compare = flag.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	)
	flag.Parse()
	// The reference host has 2 cores; pin the scheduler to that so a larger
	// host measures the same configuration.
	runtime.GOMAXPROCS(2)

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare A.json B.json"))
		}
		os.Exit(compareSets(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *name == "":
		os.Exit(runSuite(*seed, *seconds, *runs, *outPath))
	}

	w := workloadByName(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	res, err := runWorkload(w, runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, setups: 3})
	if err != nil {
		fatal(err)
	}
	printResult(os.Stdout, res)
	// The last line is the contract with the driver: exactly these keys.
	line, err := json.Marshal(resultLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// printResult prints every metric of one run by name with its unit, then
// the details and notes.
func printResult(w *os.File, res *result) {
	mode := "end-to-end, tracing off"
	if res.Trace {
		mode = "per-layer, tracing on"
	}
	fmt.Fprintf(w, "== %s  seed %d  (%s)\n", res.Workload, res.Seed, mode)
	for _, group := range []map[string]metric{res.Metrics, res.Detail} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-40s %16.4f %s\n", n, group[n].Value, group[n].Unit)
		}
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
