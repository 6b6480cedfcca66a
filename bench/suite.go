package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json, the contract this program
// reports against, that -compare and the smoke test read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// resultSet is one full set of runs of one commit on one host: what
// -compare reads and what bench/results/ keeps.
type resultSet struct {
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Runs      int                     `json:"runs"`
	GoVersion string                  `json:"go_version"`
	NumCPU    int                     `json:"num_cpu"`
	Claim     *string                 `json:"claim"` // this benchmark claims no gain
	Workloads map[string]*workloadSet `json:"workloads"`
}

type workloadSet struct {
	// EndToEnd holds one value per untraced run, in seed order.
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
}

// runSuite runs every workload runs times untraced and once traced, each
// run in a process of its own (so rss_peak_mb is one workload's), echoing
// each run's report, and writes the result set.
func runSuite(seed int64, seconds float64, runs int, outPath string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	set := &resultSet{Seed: seed, Seconds: seconds, Runs: runs, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), Workloads: map[string]*workloadSet{}}
	status := 0
	for i := range workloads {
		w := &workloads[i]
		ws := &workloadSet{EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
		set.Workloads[w.name] = ws
		for r := 0; r <= runs; r++ {
			traced := r == runs // the traced pass comes last
			runSeed := seed + int64(r)
			if traced {
				runSeed = seed
			}
			line, err := runChild(self, w.name, runSeed, seconds, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, runSeed, err)
				status = 1
				if line == nil {
					continue
				}
			}
			ws.Attempted += line.Attempted
			ws.Failed += line.Failed
			for name, m := range line.Metrics {
				if traced {
					ws.PerLayer[name] = m.Value
				} else {
					ws.EndToEnd[name] = append(ws.EndToEnd[name], m.Value)
				}
			}
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	return status
}

// resultLine is the object on the last line of a run's standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runChild runs one workload in a child process, passes its report
// through, and parses the result object on its last line.
func runChild(self, name string, seed int64, seconds float64, traced bool) (*resultLine, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", trace)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &line, runErr
}

// compareSets prints, per (workload, metric), how far set B is from set A
// relative to the bound in BENCHMARK.json, with positive meaning worse. A
// pair whose run-to-run spread (interquartile range over median, in either
// set) exceeds the bound is unresolved, not ok. The exit status is 1 when
// any metric breaches its bound.
func compareSets(w io.Writer, pathA, pathB string) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	var a, b resultSet
	for path, dst := range map[string]*resultSet{pathA: &a, pathB: &b} {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, dst)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
	}
	breaches, unresolved := 0, 0
	fmt.Fprintf(w, "A = %s (%d runs)   B = %s (%d runs)   worse%% > 0 means B is worse\n", pathA, a.Runs, pathB, b.Runs)
	for _, wl := range spec.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "\n%s: missing from a set\n", wl.Name)
			breaches++
			continue
		}
		fmt.Fprintf(w, "\n%s\n  %-20s %-5s %14s %14s %8s %8s %8s %7s  %s\n", wl.Name,
			"end-to-end", "unit", "median A", "median B", "worse%", "iqr A%", "iqr B%", "bound%", "verdict")
		for _, m := range spec.EndToEnd {
			va, vb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "  %-20s missing\n", m.Name)
				breaches++
				continue
			}
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := (q3a-q1a)/ma, (q3b-q1b)/mb
			verdict := "ok"
			switch {
			case math.Max(sa, sb) > m.Bound:
				verdict = "unresolved"
				unresolved++
			case worse > m.Bound:
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(w, "  %-20s %-5s %14.3f %14.3f %+8.2f %8.2f %8.2f %7.1f  %s\n",
				m.Name, m.Unit, ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
		// Failures are held to an absolute bound: B may fail at most 0.001
		// of its operations more than A.
		fa := float64(wa.Failed) / math.Max(1, float64(wa.Attempted))
		fb := float64(wb.Failed) / math.Max(1, float64(wb.Attempted))
		verdict := "ok"
		if fb > fa+0.001 {
			verdict = "BREACH"
			breaches++
		}
		fmt.Fprintf(w, "  %-20s %-5s %14.6f %14.6f %35s  %s\n", "failed_share", "ratio", fa, fb, "+0.001 abs", verdict)
		fmt.Fprintf(w, "  %-40s %-5s %14s %14s %8s   (one traced run each; not gated)\n", "per-layer", "unit", "A", "B", "diff%")
		for _, m := range spec.PerLayer {
			va, vb := wa.PerLayer[m.Name], wb.PerLayer[m.Name]
			diff := math.NaN()
			if va != 0 {
				diff = 100 * (vb - va) / va
			}
			fmt.Fprintf(w, "  %-40s %-5s %14.3f %14.3f %+8.1f\n", m.Name, m.Unit, va, vb, diff)
		}
	}
	fmt.Fprintf(w, "\n%d breaches, %d unresolved\n", breaches, unresolved)
	if breaches > 0 {
		return 1
	}
	return 0
}
