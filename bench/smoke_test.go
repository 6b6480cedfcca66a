package main

import (
	"os"
	"regexp"
	"testing"
)

// TestSmoke runs every workload at about 200 DMLs, untraced and traced,
// and holds what each run emits against BENCHMARK.json: the same workload
// and metric names both ways, every metric with the unit the contract
// gives it, every name in the contract's alphabet, and every output check
// passing.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	// durable_sync and the probes write under scratchRoot in the working
	// directory; keep that out of the source tree.
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	inSpec := map[string]bool{}
	for _, w := range spec.Workloads {
		inSpec[w.Name] = true
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
	}
	for i := range workloads {
		if !inSpec[workloads[i].name] {
			t.Errorf("workload %q is missing from BENCHMARK.json", workloads[i].name)
		}
	}

	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := runWorkload(w, runConfig{seed: 7, seconds: 5, trace: traced, ops: 200, warmup: 40, setups: 1})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s (trace %v): correct %v, failed %d: %v", w.name, traced, res.Correct, res.Failed, res.Notes)
			}
			units := map[string]string{}
			for _, m := range want {
				units[m.Name] = m.Unit
				if !nameRE.MatchString(m.Name) {
					t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
				}
				if m.Unit == "" {
					t.Errorf("metric %q has no unit in BENCHMARK.json", m.Name)
				}
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s (trace %v): BENCHMARK.json metric %q was not emitted", w.name, traced, m.Name)
				}
			}
			for name, m := range res.Metrics {
				switch unit, ok := units[name]; {
				case !ok:
					t.Errorf("%s (trace %v): emitted metric %q is not in BENCHMARK.json", w.name, traced, name)
				case unit != m.Unit:
					t.Errorf("%s (trace %v): metric %q has unit %q, BENCHMARK.json says %q", w.name, traced, name, m.Unit, unit)
				}
			}
		}
	}
}
