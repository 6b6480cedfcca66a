package main

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/led"
)

// This file is the gated micro-benchmark set of the signal hot path,
// written with a host-speed calibration to BENCH_PR7.json (-exp matrix),
// and the regression gate that compares a fresh run of the gated set
// against that committed baseline (-exp gate, `make bench-gate`).
//
// The gate's sharp edge is allocs/op: it is machine-independent and must
// never increase. ns/op is gated with a threshold generous enough to
// absorb host variance (10% locally, 25% in CI), so it catches collapses,
// not jitter.

// benchJSONPath / gateBaselinePath / gateThreshold back the -bench-json,
// -gate-baseline and -gate-threshold flags (main.go).
var (
	benchJSONPath    string
	gateBaselinePath string
	gateThreshold    float64
)

// gatedReps is the repetitions per gated benchmark; each reports its best
// run. Single runs on a busy host swing ±30% (scheduler and GC phase
// noise); best-of-R suppresses the one-sided noise.
const gatedReps = 3

// gatedMetric is one gated micro-benchmark measurement.
type gatedMetric struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// bench7Report is the BENCH_PR7.json document. The committed baseline
// carries keys this type does not have; json.Unmarshal ignores them.
type bench7Report struct {
	Bench     string                 `json:"bench"`
	GoVersion string                 `json:"go_version"`
	NumCPU    int                    `json:"num_cpu"`
	Reps      int                    `json:"reps"`
	Gated     map[string]gatedMetric `json:"gated"`
	// CalibrationNs is the host-speed probe (calibrate) measured alongside
	// the gated set. The gate re-measures it and scales the baseline's
	// ns/op by the ratio, so systematic host drift — a slower CI runner, a
	// noisy neighbor — cancels out of the comparison instead of tripping
	// the threshold. allocs/op needs no such normalization.
	CalibrationNs float64 `json:"calibration_ns"`
	Note          string  `json:"note"`
}

// expMatrix measures the gated micro-benchmark set and the host
// calibration, and writes BENCH_PR7.json when -bench-json is given.
func expMatrix(w io.Writer) error {
	report := bench7Report{
		Bench:     "zero-allocation signal hot path",
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Reps:      gatedReps,
		Note: "gated metrics feed `make bench-gate` " +
			"(allocs/op must never increase, ns/op within threshold)",
	}
	fmt.Fprintf(w, "--- gated micro-benchmarks ---\n")
	report.Gated = runGatedBenchmarks(w)
	report.CalibrationNs = calibrate()
	fmt.Fprintf(w, "calibration: %.0f ns\n", report.CalibrationNs)
	if benchJSONPath != "" {
		doc, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(benchJSONPath, append(doc, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", benchJSONPath)
	}
	return nil
}

// gatedBenchNames fixes the gated set and its order (iteration and
// reporting both use it; the gate fails on a missing name).
var gatedBenchNames = []string{
	"signal_warm",
	"parse_text_line",
	"decode_text_batch16",
	"decode_binary_batch16",
	"encode_binary_batch16",
}

// runGatedBenchmarks measures the gated micro-benchmark set with the
// testing harness (calibrated iteration counts, allocation accounting)
// and prints one row per benchmark. Each benchmark runs gatedReps
// times and reports its fastest ns/op — scheduler and GC noise on a
// loaded host is strictly one-sided, so min-of-R is the stable estimator
// the thresholded gate needs (the same methodology produces the committed
// baseline, keeping the comparison honest).
func runGatedBenchmarks(w io.Writer) map[string]gatedMetric {
	out := make(map[string]gatedMetric, len(gatedBenchNames))
	for _, name := range gatedBenchNames {
		fn := gatedBench(name)
		if fn == nil {
			panic("ecabench: no body for gated benchmark " + name)
		}
		var m gatedMetric
		for rep := 0; rep < gatedReps; rep++ {
			res := testing.Benchmark(fn)
			ns := float64(res.T.Nanoseconds()) / float64(res.N)
			if rep == 0 || ns < m.NsPerOp {
				m.NsPerOp = ns
			}
			// Allocation counts are deterministic; take the worst seen so
			// a flaky extra allocation cannot hide behind the fastest rep.
			if a := res.AllocsPerOp(); rep == 0 || a > m.AllocsPerOp {
				m.AllocsPerOp = a
			}
			if bpo := res.AllocedBytesPerOp(); rep == 0 || bpo > m.BytesPerOp {
				m.BytesPerOp = bpo
			}
		}
		out[name] = m
		fmt.Fprintf(w, "%-24s %12.1f ns/op %6d allocs/op %8d B/op\n",
			name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
	}
	return out
}

// gatedBench returns the benchmark body for one gated metric (nil for an
// unknown name; bench7_test.go pins that every gatedBenchNames entry
// resolves).
func gatedBench(name string) func(b *testing.B) {
	switch name {
	case "signal_warm":
		// One warmed primitive through detection and an IMMEDIATE rule:
		// the Signal→detect hot path (budget: ≤2 allocs/op, see
		// internal/led/alloc_test.go).
		return func(b *testing.B) {
			l := led.New(led.NewManualClock(time.Unix(0, 0)))
			if err := l.DefinePrimitive("e"); err != nil {
				b.Fatal(err)
			}
			hits := 0
			if err := l.AddRule(&led.Rule{
				Name: "r", Event: "e", Context: led.Recent,
				Action: func(*led.Occ) { hits++ },
			}); err != nil {
				b.Fatal(err)
			}
			at := time.Unix(0, 0)
			for i := 1; i <= 1000; i++ {
				at = at.Add(time.Microsecond)
				l.Signal(led.Primitive{Event: "e", Op: "insert", VNo: i, At: at})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at = at.Add(time.Microsecond)
				l.Signal(led.Primitive{Event: "e", Op: "insert", VNo: 1000 + i, At: at})
			}
			if hits == 0 {
				b.Fatal("rule never fired")
			}
		}
	case "parse_text_line":
		return textDecodeBench([]byte("ECA1|db.u.ev|db.u.tbl|insert|42"), 1)
	case "decode_text_batch16":
		return textDecodeBench(textBatch(16), 16)
	case "decode_binary_batch16":
		return func(b *testing.B) {
			buf, err := agent.EncodeBinaryBatch(benchPrims(16))
			if err != nil {
				b.Fatal(err)
			}
			sink := 0
			emit := func(p led.Primitive) { sink += p.VNo }
			if _, err := agent.DecodeBinaryBatch(buf, emit); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := agent.DecodeBinaryBatch(buf, emit); err != nil {
					b.Fatal(err)
				}
			}
		}
	case "encode_binary_batch16":
		return func(b *testing.B) {
			prims := benchPrims(16)
			buf, err := agent.EncodeBinaryBatch(prims)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]byte, 0, 2*len(buf))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := agent.AppendBinaryBatch(dst[:0], prims); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return nil
}

// textDecodeBench builds a decode benchmark over one text datagram that
// must contain want well-formed lines.
func textDecodeBench(datagram []byte, want int) func(b *testing.B) {
	return func(b *testing.B) {
		sink := 0
		emit := func(p led.Primitive) { sink += p.VNo }
		onErr := func(err error) { b.Fatalf("malformed benchmark datagram: %v", err) }
		agent.DecodeBatchBytes(datagram, emit, onErr)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if good, bad := agent.DecodeBatchBytes(datagram, emit, onErr); good != want || bad != 0 {
				b.Fatalf("decoded %d/%d, want %d/0", good, bad, want)
			}
		}
	}
}

func benchPrims(n int) []led.Primitive {
	prims := make([]led.Primitive, n)
	for i := range prims {
		prims[i] = led.Primitive{Event: "db.u.ev", Table: "db.u.tbl", Op: "insert", VNo: i + 1}
	}
	return prims
}

func textBatch(n int) []byte {
	var out []byte
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprintf("ECA1|db.u.ev|db.u.tbl|insert|%d\n", i+1)...)
	}
	return out
}

// expGate is the perf-regression gate: re-measure the gated set, then
// compare against the committed BENCH_PR7.json baseline. Any allocs/op
// increase or an ns/op slowdown beyond the threshold fails the run (and
// with it `make check`).
func expGate(w io.Writer) error {
	raw, err := os.ReadFile(gateBaselinePath)
	if err != nil {
		return fmt.Errorf("gate: reading baseline: %w (run `make bench-matrix` to create it)", err)
	}
	var baseline bench7Report
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("gate: parsing baseline %s: %w", gateBaselinePath, err)
	}
	fmt.Fprintf(w, "baseline %s (%s), threshold %.0f%%\n", gateBaselinePath, baseline.GoVersion, gateThreshold*100)
	// The host's speed can shift between any two measurements on a busy
	// machine, so the probe brackets the benchmark block — before and
	// after — and the gate uses the slower reading: if either probe saw a
	// slow phase, the budget stretches accordingly.
	calBefore := calibrate()
	fresh := runGatedBenchmarks(w)
	calAfter := calibrate()
	cal := calBefore
	if calAfter > cal {
		cal = calAfter
	}
	scale := 1.0
	if baseline.CalibrationNs > 0 {
		scale = cal / baseline.CalibrationNs
		fmt.Fprintf(w, "calibration: %.0f ns vs baseline %.0f ns (host speed scale %.2fx)\n",
			cal, baseline.CalibrationNs, scale)
	}
	violations := compareGate(baseline.Gated, fresh, gateThreshold, scale)
	// Benchmark noise on a loaded host is one-sided (a measurement only
	// ever comes out slower than the code's true cost), so an apparent
	// ns/op breach gets up to gateRetries re-measurements of just the
	// breaching benchmarks, merging the minimum. Phantom violations wash
	// out; a real regression reproduces every time. allocs/op breaches
	// are deterministic and never retried away (the merge keeps the max).
	for attempt := 0; attempt < gateRetries && len(violations) > 0; attempt++ {
		fmt.Fprintf(w, "gate: %d violation(s), re-measuring (retry %d/%d)\n",
			len(violations), attempt+1, gateRetries)
		fresh = remeasureViolating(w, violations, fresh)
		violations = compareGate(baseline.Gated, fresh, gateThreshold, scale)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(w, "GATE FAIL: %s\n", v)
		}
		return fmt.Errorf("gate: %d perf budget violation(s)", len(violations))
	}
	fmt.Fprintf(w, "gate: OK (%d metrics within budget)\n", len(gatedBenchNames))
	return nil
}

// gateRetries is how many times the gate re-measures benchmarks that
// breached their ns/op limit before believing the breach.
const gateRetries = 2

// remeasureViolating re-runs only the gated benchmarks named in the
// violations, merging the new measurement into fresh: minimum ns/op
// (noise is one-sided slow), maximum allocs/op and bytes/op (a real
// allocation never disappears by re-running).
func remeasureViolating(w io.Writer, violations []string, fresh map[string]gatedMetric) map[string]gatedMetric {
	for _, name := range gatedBenchNames {
		hit := false
		for _, v := range violations {
			if strings.HasPrefix(v, name+":") {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		res := testing.Benchmark(gatedBench(name))
		m := fresh[name]
		if ns := float64(res.T.Nanoseconds()) / float64(res.N); ns < m.NsPerOp {
			m.NsPerOp = ns
		}
		if a := res.AllocsPerOp(); a > m.AllocsPerOp {
			m.AllocsPerOp = a
		}
		if bpo := res.AllocedBytesPerOp(); bpo > m.BytesPerOp {
			m.BytesPerOp = bpo
		}
		fresh[name] = m
		fmt.Fprintf(w, "%-24s %12.1f ns/op %6d allocs/op %8d B/op (remeasured)\n",
			name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
	}
	return fresh
}

// compareGate is the pure comparator behind the gate: for every baseline
// metric, allocs/op must not increase at all and ns/op must stay within
// (1+threshold)× the baseline after scaling it by the host-speed ratio
// (scale > 1 means this host currently runs the calibration workload
// slower than the baseline host did, so the ns/op budget stretches by the
// same factor). Scale is clamped to ≥ 1: calibration exists to stop a
// slower host from tripping phantom regressions, and must only ever
// loosen the comparison — a probe that happens to catch the host in a
// fast phase would otherwise tighten every limit below the raw
// threshold and fail runs whose benchmarks are unchanged (observed:
// scale 0.71 failing all five metrics at ±5% real movement). Returns
// one violation string per breach.
func compareGate(baseline, fresh map[string]gatedMetric, threshold, scale float64) []string {
	if scale < 1 {
		scale = 1
	}
	var violations []string
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline[name]
		got, ok := fresh[name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: missing from fresh run", name))
			continue
		}
		if got.AllocsPerOp > base.AllocsPerOp {
			violations = append(violations, fmt.Sprintf(
				"%s: allocs/op rose %d -> %d (no increase allowed)",
				name, base.AllocsPerOp, got.AllocsPerOp))
		}
		if limit := base.NsPerOp * scale * (1 + threshold); got.NsPerOp > limit {
			violations = append(violations,
				nsViolation(name, base.NsPerOp, got.NsPerOp, limit, threshold, scale))
		}
	}
	return violations
}

// nsViolation renders one ns/op breach. The verb reports the TRUE
// direction of movement against the raw baseline — a breach of the scaled
// limit can coincide with a raw decrease (e.g. a baseline recorded on a
// slower host), and the old hardcoded "rose" printed nonsense like
// "ns/op rose 1955.4 -> 1849.6". The scaled limit that was actually
// breached is always printed. The "name:" prefix is load-bearing:
// remeasureViolating matches violations to benchmarks by it.
func nsViolation(name string, base, got, limit, threshold, scale float64) string {
	verb := "rose"
	switch {
	case got < base:
		verb = "fell"
	case got == base:
		verb = "held"
	}
	return fmt.Sprintf(
		"%s: ns/op %s %.1f -> %.1f, above scaled limit %.1f (baseline %.1f %+.0f%% at host scale %.2fx)",
		name, verb, base, got, limit, base, threshold*100, scale)
}

// calibrate measures the host's current effective single-thread speed:
// a fixed mixed workload (map probes over interned-style strings plus a
// CRC sweep, roughly the hot path's instruction mix), min of five runs.
// Units are arbitrary — only the ratio between two calibrate() results on
// the same build matters.
func calibrate() float64 {
	buf := make([]byte, 32<<10)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	table := make(map[string]int, 256)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("db.user.event%03d", i)
		table[keys[i]] = i
	}
	best := 0.0
	sink := 0
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for round := 0; round < 200; round++ {
			for _, k := range keys {
				sink += table[k]
			}
			sink += int(crc32.ChecksumIEEE(buf))
		}
		ns := float64(time.Since(start).Nanoseconds())
		if best == 0 || ns < best {
			best = ns
		}
	}
	if sink == 42 {
		fmt.Fprint(io.Discard, sink) // defeat dead-code elimination
	}
	return best
}
