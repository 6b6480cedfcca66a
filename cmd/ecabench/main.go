// Command ecabench regenerates every figure of the paper from the live
// system.
//
// Usage:
//
//	ecabench -figure 11        # regenerate one figure (1-17, snoop, limits)
//	ecabench -all              # regenerate every figure
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
	flag.Parse()

	switch {
	case *all:
		for _, id := range figureIDs() {
			printFigure(id)
		}
	case *figure != "":
		printFigure(*figure)
	default:
		flag.Usage()
		fmt.Fprintf(os.Stderr, "\nfigures: %s\n", strings.Join(figureIDs(), ", "))
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
