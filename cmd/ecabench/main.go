// Command ecabench regenerates every figure of the paper from the live
// system and runs the quantitative experiments recorded in EXPERIMENTS.md.
//
// Usage:
//
//	ecabench -figure 11        # regenerate one figure (1-17, snoop, limits)
//	ecabench -all              # regenerate every figure
//	ecabench -exp passthrough  # run one experiment
//	ecabench -exp all          # run every experiment
//	ecabench -exp e2e -metrics # also scrape the agent's /metrics after the run
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
)

func main() {
	figure := flag.String("figure", "", "figure to regenerate (1-17, snoop, limits)")
	all := flag.Bool("all", false, "regenerate every figure")
	exp := flag.String("exp", "", "experiment to run: "+strings.Join(experimentIDs(), ", ")+", or all")
	flag.StringVar(&benchJSONPath, "bench-json", "",
		"write the matrix/syncship experiment's results as JSON to this path")
	flag.StringVar(&gateBaselinePath, "gate-baseline", "BENCH_PR7.json",
		"baseline JSON the gate experiment compares fresh measurements against")
	flag.Float64Var(&gateThreshold, "gate-threshold", 0.10,
		"fractional ns/op slowdown the gate experiment tolerates (allocs/op may never rise)")
	flag.BoolVar(&scrapeEnabled, "metrics", false,
		"serve the agent's admin endpoint during experiments and print a /metrics scrape after each run")
	flag.Parse()

	switch {
	case *all:
		for _, id := range figureIDs() {
			printFigure(id)
		}
	case *figure != "":
		printFigure(*figure)
	case *exp == "all":
		for _, id := range experimentIDs() {
			if experiments[id].manual {
				continue // needs a committed baseline or explicit opt-in
			}
			runExperiment(id)
		}
	case *exp != "":
		runExperiment(*exp)
	default:
		flag.Usage()
		fmt.Fprintf(os.Stderr, "\nfigures: %s\nexperiments: %s\n",
			strings.Join(figureIDs(), ", "), strings.Join(experimentIDs(), ", "))
		os.Exit(2)
	}
}

func printFigure(id string) {
	f, ok := figures[id]
	if !ok {
		log.Fatalf("ecabench: unknown figure %q (have %s)", id, strings.Join(figureIDs(), ", "))
	}
	fmt.Printf("=== Figure %s: %s ===\n", id, f.title)
	if err := f.fn(os.Stdout); err != nil {
		log.Fatalf("ecabench: figure %s: %v", id, err)
	}
	fmt.Println()
}

func runExperiment(id string) {
	e, ok := experiments[id]
	if !ok {
		log.Fatalf("ecabench: unknown experiment %q (have %s)", id, strings.Join(experimentIDs(), ", "))
	}
	fmt.Printf("=== Experiment %s: %s ===\n", id, e.title)
	if err := e.fn(os.Stdout); err != nil {
		log.Fatalf("ecabench: experiment %s: %v", id, err)
	}
	fmt.Println()
}
