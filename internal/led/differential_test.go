package led

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// The operator-stream suite pins the detector's observable behaviour:
// every Snoop operator, under all four parameter contexts and all three
// coupling modes, is driven through a ManualClock event script with four
// independent copies of the rule set, and the occurrence streams — event
// name, context, occurrence time, and the full constituent list — must
// match testdata/operator_streams.golden byte for byte. The golden file
// was recorded from the detector before its per-component sharding was
// removed, so it also proves the single-lock detector kept that output.

// diffStep is one step of a differential event script.
type diffStep struct {
	kind  string        // "sig" | "adv" | "flush"
	event string        // for sig: unprefixed event name (e1, e2, e3)
	d     time.Duration // for adv
}

func sig(event string) diffStep    { return diffStep{kind: "sig", event: event} }
func adv(d time.Duration) diffStep { return diffStep{kind: "adv", d: d} }
func flushDeferred() diffStep      { return diffStep{kind: "flush"} }

// diffCase is one operator under test: an expression template over
// %[1]s..%[3]s (the prefixed primitive names) and a script that exercises
// initiators, middles, terminators, overlapping windows and timers.
type diffCase struct {
	name   string
	expr   string
	script []diffStep
}

var diffCases = []diffCase{
	{"OR", "%[1]s | %[2]s", []diffStep{
		sig("e1"), sig("e2"), sig("e1"), sig("e3"), sig("e2"),
	}},
	{"AND", "%[1]s ^ %[2]s", []diffStep{
		sig("e1"), sig("e1"), sig("e2"), sig("e2"), sig("e1"), sig("e2"), sig("e2"),
	}},
	{"SEQ", "%[1]s ; %[2]s", []diffStep{
		sig("e1"), sig("e1"), sig("e2"), sig("e1"), sig("e2"), sig("e2"),
	}},
	{"NOT", "NOT(%[1]s, %[3]s, %[2]s)", []diffStep{
		sig("e1"), sig("e2"), sig("e1"), sig("e1"), sig("e3"), sig("e2"), sig("e1"), sig("e2"),
	}},
	{"A", "A(%[1]s, %[2]s, %[3]s)", []diffStep{
		sig("e1"), sig("e2"), sig("e1"), sig("e2"), sig("e3"), sig("e2"), sig("e1"), sig("e2"), sig("e3"),
	}},
	{"Astar", "A*(%[1]s, %[2]s, %[3]s)", []diffStep{
		sig("e1"), sig("e2"), sig("e1"), sig("e2"), sig("e3"), sig("e2"), sig("e3"), sig("e1"), sig("e3"),
	}},
	{"P", "P(%[1]s, [2 sec], %[2]s)", []diffStep{
		sig("e1"), adv(5 * time.Second), sig("e1"), adv(3 * time.Second), sig("e2"),
		sig("e1"), adv(2 * time.Second), sig("e2"),
	}},
	{"Pstar", "P*(%[1]s, [2 sec], %[2]s)", []diffStep{
		sig("e1"), adv(5 * time.Second), sig("e2"), sig("e1"), adv(7 * time.Second), sig("e2"),
	}},
	{"PLUS", "%[1]s PLUS [2 sec]", []diffStep{
		sig("e1"), adv(3 * time.Second), sig("e1"), sig("e1"), adv(5 * time.Second),
	}},
}

// diffRecorder collects canonical occurrence strings per rule-set copy.
type diffRecorder struct {
	mu    sync.Mutex
	byKey map[string][]string
}

func (r *diffRecorder) record(key string, o *Occ) {
	s := canonOcc(o)
	r.mu.Lock()
	r.byKey[key] = append(r.byKey[key], s)
	r.mu.Unlock()
}

// canonOcc renders every observable field of an occurrence.
func canonOcc(o *Occ) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s@%d[", o.Event, o.Context, o.At.UnixNano())
	for i, c := range o.Constituents {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%s:%d@%d", c.Event, c.Op, c.VNo, c.At.UnixNano())
	}
	b.WriteByte(']')
	return b.String()
}

const diffCopies = 4

// buildDiffLED defines diffCopies independent copies of the operator's
// rule set on l and attaches a recording rule per copy.
func buildDiffLED(t *testing.T, l *LED, c diffCase, ctx Context, coupling Coupling, rec *diffRecorder) {
	t.Helper()
	for k := 0; k < diffCopies; k++ {
		pfx := fmt.Sprintf("c%d_", k)
		for _, p := range []string{"e1", "e2", "e3"} {
			if err := l.DefinePrimitive(pfx + p); err != nil {
				t.Fatal(err)
			}
		}
		expr := fmt.Sprintf(c.expr, pfx+"e1", pfx+"e2", pfx+"e3")
		defComposite(t, &harness{led: l}, pfx+"comp", expr)
		key := pfx
		if err := l.AddRule(&Rule{
			Name:     pfx + "r",
			Event:    pfx + "comp",
			Context:  ctx,
			Coupling: coupling,
			Action:   func(o *Occ) { rec.record(key, o) },
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// runDiffScript drives l through the script on its clock. With concurrent
// set, each signal step signals the rule-set copies from their own
// goroutines, so their propagations reach the detector lock in arbitrary
// order.
func runDiffScript(c diffCase, clock *ManualClock, l *LED, concurrent bool) {
	vno := 0
	for _, st := range c.script {
		switch st.kind {
		case "sig":
			vno++
			clock.Advance(time.Second) // distinct, strictly increasing times
			at := clock.Now()
			var wg sync.WaitGroup
			for k := 0; k < diffCopies; k++ {
				p := Primitive{
					Event: fmt.Sprintf("c%d_%s", k, st.event),
					Table: st.event + "_tbl", Op: "insert", VNo: vno, At: at,
				}
				if !concurrent {
					l.Signal(p)
					continue
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					l.Signal(p)
				}()
			}
			wg.Wait()
		case "adv":
			clock.Advance(st.d)
		case "flush":
			l.FlushDeferred()
		}
	}
}

// updateGolden rewrites goldenStreamsPath from the current detector instead
// of comparing against it: go test ./internal/led -run TestOperatorStreamsGolden -update
var updateGolden = flag.Bool("update", false, "rewrite "+goldenStreamsPath)

const goldenStreamsPath = "testdata/operator_streams.golden"

// forEachDiffCell visits every operator × context × coupling cell under its
// subtest name.
func forEachDiffCell(fn func(name string, c diffCase, ctx Context, coupling Coupling)) {
	for _, c := range diffCases {
		for _, ctx := range []Context{Recent, Chronicle, Continuous, Cumulative} {
			for _, coupling := range []Coupling{Immediate, Deferred, Detached} {
				fn(fmt.Sprintf("%s/%s/%s", c.name, ctx, coupling), c, ctx, coupling)
			}
		}
	}
}

// operatorStreams runs one cell's script on a fresh detector and renders
// every rule-set copy's canonical occurrence stream, copies in order, one
// occurrence per line. DETACHED streams are sorted: detached execution
// order is unspecified.
func operatorStreams(t *testing.T, c diffCase, ctx Context, coupling Coupling, concurrent bool) string {
	t.Helper()
	clock := NewManualClock(t0)
	l := New(clock)
	rec := &diffRecorder{byKey: make(map[string][]string)}
	buildDiffLED(t, l, c, ctx, coupling, rec)
	runDiffScript(c, clock, l, concurrent)
	if coupling == Deferred {
		l.FlushDeferred()
	}
	l.Wait()
	var b strings.Builder
	for k := 0; k < diffCopies; k++ {
		occs := rec.byKey[fmt.Sprintf("c%d_", k)]
		if coupling == Detached {
			sort.Strings(occs)
		}
		for _, o := range occs {
			b.WriteString(o)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// readGoldenStreams parses goldenStreamsPath: each cell is a "== name"
// header followed by its stream lines.
func readGoldenStreams(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenStreamsPath)
	if err != nil {
		t.Fatal(err)
	}
	cells := make(map[string]string)
	var cur string
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "== "); ok {
			cur = strings.TrimSuffix(name, "\n")
			cells[cur] = ""
		} else if line != "" {
			cells[cur] += line
		}
	}
	return cells
}

// checkOperatorStreams runs every cell as a subtest and compares its
// streams with the golden file.
func checkOperatorStreams(t *testing.T, concurrent bool) {
	golden := readGoldenStreams(t)
	cells := 0
	forEachDiffCell(func(name string, c diffCase, ctx Context, coupling Coupling) {
		cells++
		t.Run(name, func(t *testing.T) {
			want, ok := golden[name]
			if !ok {
				t.Fatalf("cell %s missing from %s", name, goldenStreamsPath)
			}
			if got := operatorStreams(t, c, ctx, coupling, concurrent); got != want {
				t.Errorf("occurrence streams diverge from %s\ngolden:\n%s\ngot:\n%s", goldenStreamsPath, want, got)
			}
		})
	})
	if len(golden) != cells {
		t.Errorf("%s has %d cells, the suite runs %d", goldenStreamsPath, len(golden), cells)
	}
}

// TestOperatorStreamsGolden drives every cell serially and requires the
// golden streams.
func TestOperatorStreamsGolden(t *testing.T) {
	if *updateGolden {
		var b strings.Builder
		forEachDiffCell(func(name string, c diffCase, ctx Context, coupling Coupling) {
			fmt.Fprintf(&b, "== %s\n%s", name, operatorStreams(t, c, ctx, coupling, false))
		})
		if err := os.MkdirAll(filepath.Dir(goldenStreamsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStreamsPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkOperatorStreams(t, false)
}

// TestDifferentialShardedEquivalence drives every cell with the rule-set
// copies sharded across goroutines — each signal step signals every copy
// from its own goroutine — and still requires the golden streams:
// independent rule sets must not observe each other through the one
// detector lock, the shared pending list or the shared deferred queue.
func TestDifferentialShardedEquivalence(t *testing.T) {
	checkOperatorStreams(t, true)
}

// TestDifferentialProducesOccurrences guards the suite against vacuous
// success: every operator must emit at least one occurrence in at least
// one context, or the script is not exercising it.
func TestDifferentialProducesOccurrences(t *testing.T) {
	for _, c := range diffCases {
		total := 0
		for _, ctx := range []Context{Recent, Chronicle, Continuous, Cumulative} {
			clock := NewManualClock(t0)
			l := New(clock)
			rec := &diffRecorder{byKey: make(map[string][]string)}
			buildDiffLED(t, l, c, ctx, Immediate, rec)
			runDiffScript(c, clock, l, false)
			for _, occs := range rec.byKey {
				total += len(occs)
			}
		}
		if total == 0 {
			t.Errorf("operator %s: script produced no occurrences in any context", c.name)
		}
	}
}
