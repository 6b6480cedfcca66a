package led_test

// The CEP oracle-differential suite (ISSUE 8): every windowed/aggregate/
// interval operator, under all four parameter contexts and all three
// coupling modes, is driven through the production LED on the same
// ManualClock event script as the deliberately naive reference interpreter
// in internal/led/oracle, which recomputes every window from the full
// occurrence history. The observable occurrence streams — event name,
// context, occurrence time, and the full constituent list — must be
// identical. The suite lives in an external test package because the
// oracle package imports led.
//
// `make cep-differential` selects it by the TestCEPDifferential prefix.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/led/oracle"
	"github.com/activedb/ecaagent/internal/snoop"
)

// cepT0 mirrors the internal suite's epoch: a whole-second UTC instant, on
// the boundary grid of every whole-second slide.
var cepT0 = time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)

type cepStep struct {
	kind  string // "sig" | "adv"
	event string
	d     time.Duration
}

func cepSig(event string) cepStep    { return cepStep{kind: "sig", event: event} }
func cepAdv(d time.Duration) cepStep { return cepStep{kind: "adv", d: d} }

// cepCase is one CEP operator cell: an expression template over
// %[1]s..%[4]s (the prefixed primitive names) and a script. Aggregate
// thresholds are chosen so the comparator both passes and fails during the
// script (vnos count 1,2,3,… per case); interval scripts include rounds
// where the Allen relation does not hold.
type cepCase struct {
	name   string
	expr   string
	script []cepStep
}

var cepCases = []cepCase{
	{"WINDOW_TUMBLING", "WINDOW(%[1]s, [3 sec])", []cepStep{
		cepSig("e1"), cepSig("e1"),
		cepAdv(2 * time.Second), // boundary fires with two occurrences
		cepSig("e1"),
		cepAdv(4 * time.Second), // one full boundary, one empty (disarms)
		cepSig("e1"),            // re-arms after the quiet period
		cepAdv(3 * time.Second),
	}},
	{"WINDOW_SLIDING", "WINDOW(%[1]s, [4 sec], SLIDE [2 sec])", []cepStep{
		cepSig("e1"), cepSig("e1"), cepSig("e1"),
		cepAdv(3 * time.Second), // overlapping windows share occurrences
		cepSig("e1"),
		cepAdv(5 * time.Second), // the straggler appears in two windows
	}},
	{"WINDOW_COMPOSITE", "WINDOW(%[1]s ; %[2]s, [5 sec])", []cepStep{
		cepSig("e1"), cepSig("e2"), cepSig("e1"), cepSig("e2"),
		cepAdv(6 * time.Second), // window over a context-sensitive child
		cepSig("e1"), cepSig("e2"),
		cepAdv(5 * time.Second),
	}},
	{"AGG_COUNT", "AGG(COUNT, vno, %[1]s, [3 sec]) >= 2", []cepStep{
		cepSig("e1"), cepSig("e1"),
		cepAdv(2 * time.Second), // count 2: fires
		cepSig("e1"),
		cepAdv(3 * time.Second), // count 1: suppressed
	}},
	{"AGG_SUM", "AGG(SUM, vno, %[1]s, [4 sec], SLIDE [2 sec]) > 5", []cepStep{
		cepSig("e1"), cepSig("e1"), cepSig("e1"), // vnos 1,2,3
		cepAdv(3 * time.Second),
		cepSig("e1"), // vno 4
		cepAdv(5 * time.Second),
	}},
	{"AGG_AVG", "AGG(AVG, vno, %[1]s, [3 sec]) <= 2", []cepStep{
		cepSig("e1"), cepSig("e1"), // avg 1.5: fires
		cepAdv(2 * time.Second),
		cepSig("e1"), cepSig("e1"), // avg 3.5: suppressed
		cepAdv(3 * time.Second),
	}},
	{"AGG_MIN", "AGG(MIN, vno, %[1]s, [3 sec]) < 2", []cepStep{
		cepSig("e1"), cepSig("e1"), // min 1: fires
		cepAdv(2 * time.Second),
		cepSig("e1"), // min 3: suppressed
		cepAdv(3 * time.Second),
	}},
	{"AGG_MAX", "AGG(MAX, vno, %[1]s, [4 sec], SLIDE [2 sec]) != 3", []cepStep{
		cepSig("e1"), cepSig("e1"), cepSig("e1"),
		cepAdv(3 * time.Second), // max 1 then max 3: one window suppressed
		cepSig("e1"),
		cepAdv(5 * time.Second),
	}},
	{"DURING", "(%[2]s ; %[3]s) DURING (%[1]s ; %[4]s)", []cepStep{
		// Round 1: L nested strictly inside R — fires.
		cepSig("e1"), cepSig("e2"), cepSig("e3"), cepSig("e4"),
		// Round 2: L starts before R — relation fails.
		cepSig("e2"), cepSig("e1"), cepSig("e3"), cepSig("e4"),
		// Round 3: two L candidates before the terminator — context
		// policies diverge (latest / oldest / all / merged).
		cepSig("e1"), cepSig("e2"), cepSig("e3"), cepSig("e2"), cepSig("e3"), cepSig("e4"),
	}},
	{"OVERLAPS", "(%[1]s ; %[3]s) OVERLAPS (%[2]s ; %[4]s)", []cepStep{
		// Round 1: L starts first, R starts inside L, L ends inside R.
		cepSig("e1"), cepSig("e2"), cepSig("e3"), cepSig("e4"),
		// Round 2: R starts first — nested, not overlapping.
		cepSig("e2"), cepSig("e1"), cepSig("e3"), cepSig("e4"),
		// Round 3: L completes only after R's terminator — no emission
		// for that pairing, then a clean overlap again.
		cepSig("e1"), cepSig("e2"), cepSig("e4"), cepSig("e3"),
		cepSig("e1"), cepSig("e2"), cepSig("e3"), cepSig("e4"),
	}},
}

// cepRecorder collects canonical occurrence strings per rule-set copy.
type cepRecorder struct {
	mu    sync.Mutex
	byKey map[string][]string
}

func (r *cepRecorder) record(key string, o *led.Occ) {
	s := canonCepOcc(o)
	r.mu.Lock()
	r.byKey[key] = append(r.byKey[key], s)
	r.mu.Unlock()
}

// canonCepOcc renders every observable field of an occurrence, excluding
// Context (the oracle has no couplings, so its Watch context always
// matches; keeping the rest identical is the differential claim).
func canonCepOcc(o *led.Occ) string {
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

const cepCopies = 4

var cepPrims = []string{"e1", "e2", "e3", "e4"}

// buildCepLED defines cepCopies independent copies of the operator's rule
// set on l and attaches a recording rule per copy.
func buildCepLED(t *testing.T, l *led.LED, c cepCase, ctx led.Context, coupling led.Coupling, rec *cepRecorder) {
	t.Helper()
	for k := 0; k < cepCopies; k++ {
		pfx := fmt.Sprintf("c%d_", k)
		for _, p := range cepPrims {
			if err := l.DefinePrimitive(pfx + p); err != nil {
				t.Fatal(err)
			}
		}
		expr, err := snoop.Parse(cepExprFor(c, pfx))
		if err != nil {
			t.Fatalf("parse %s: %v", c.name, err)
		}
		if err := l.DefineComposite(pfx+"comp", expr); err != nil {
			t.Fatal(err)
		}
		key := pfx
		if err := l.AddRule(&led.Rule{
			Name:     pfx + "r",
			Event:    pfx + "comp",
			Context:  ctx,
			Coupling: coupling,
			Action:   func(o *led.Occ) { rec.record(key, o) },
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// buildCepOracle mirrors buildCepLED on the reference interpreter.
func buildCepOracle(t *testing.T, orc *oracle.Oracle, c cepCase, ctx led.Context, rec *cepRecorder) {
	t.Helper()
	for k := 0; k < cepCopies; k++ {
		pfx := fmt.Sprintf("c%d_", k)
		for _, p := range cepPrims {
			if err := orc.DefinePrimitive(pfx + p); err != nil {
				t.Fatal(err)
			}
		}
		expr, err := snoop.Parse(cepExprFor(c, pfx))
		if err != nil {
			t.Fatalf("parse %s: %v", c.name, err)
		}
		if err := orc.DefineComposite(pfx+"comp", expr); err != nil {
			t.Fatal(err)
		}
		key := pfx
		if err := orc.Watch(pfx+"comp", ctx, func(o *led.Occ) { rec.record(key, o) }); err != nil {
			t.Fatal(err)
		}
	}
}

func cepExprFor(c cepCase, pfx string) string {
	return fmt.Sprintf(c.expr, pfx+"e1", pfx+"e2", pfx+"e3", pfx+"e4")
}

// runCepScript drives the production detector and the oracle through the
// script in lockstep on the shared clock.
func runCepScript(c cepCase, clock *led.ManualClock, orc *oracle.Oracle, l *led.LED) {
	vno := 0
	for _, st := range c.script {
		switch st.kind {
		case "sig":
			vno++
			clock.Advance(time.Second) // distinct, strictly increasing times
			at := clock.Now()
			if orc != nil {
				orc.AdvanceTo(at)
			}
			for k := 0; k < cepCopies; k++ {
				p := led.Primitive{
					Event: fmt.Sprintf("c%d_%s", k, st.event),
					Table: st.event + "_tbl", Op: "insert", VNo: vno, At: at,
				}
				l.Signal(p)
				if orc != nil {
					orc.Signal(p)
				}
			}
		case "adv":
			clock.Advance(st.d)
			if orc != nil {
				orc.AdvanceTo(clock.Now())
			}
		}
	}
}

// TestCEPDifferential is the oracle-differential acceptance gate: for
// every CEP operator × context × coupling, the production LED must produce
// exactly the oracle's occurrence streams.
func TestCEPDifferential(t *testing.T) {
	contexts := []led.Context{led.Recent, led.Chronicle, led.Continuous, led.Cumulative}
	couplings := []led.Coupling{led.Immediate, led.Deferred, led.Detached}
	for _, c := range cepCases {
		for _, ctx := range contexts {
			for _, coupling := range couplings {
				t.Run(fmt.Sprintf("%s/%s/%s", c.name, ctx, coupling), func(t *testing.T) {
					clock := led.NewManualClock(cepT0)
					l := led.New(clock)
					orc := oracle.New()

					rec := &cepRecorder{byKey: make(map[string][]string)}
					orcRec := &cepRecorder{byKey: make(map[string][]string)}
					buildCepLED(t, l, c, ctx, coupling, rec)
					buildCepOracle(t, orc, c, ctx, orcRec)

					runCepScript(c, clock, orc, l)
					if coupling == led.Deferred {
						l.FlushDeferred()
					}
					l.Wait()

					for k := 0; k < cepCopies; k++ {
						key := fmt.Sprintf("c%d_", k)
						want := orcRec.byKey[key]
						got := rec.byKey[key]
						if coupling == led.Detached {
							// Detached execution order is unspecified;
							// compare as multisets.
							sort.Strings(want)
							sort.Strings(got)
						}
						if strings.Join(want, "\n") != strings.Join(got, "\n") {
							t.Errorf("copy %s: LED diverges from oracle\noracle:\n  %s\nLED:\n  %s",
								key, strings.Join(want, "\n  "), strings.Join(got, "\n  "))
						}
					}
				})
			}
		}
	}
}

// TestCEPDifferentialProducesOccurrences guards the suite against vacuous
// success: every CEP operator must emit at least one occurrence in EVERY
// context, or the script is not exercising that cell.
func TestCEPDifferentialProducesOccurrences(t *testing.T) {
	for _, c := range cepCases {
		for _, ctx := range []led.Context{led.Recent, led.Chronicle, led.Continuous, led.Cumulative} {
			clock := led.NewManualClock(cepT0)
			l := led.New(clock)
			rec := &cepRecorder{byKey: make(map[string][]string)}
			buildCepLED(t, l, c, ctx, led.Immediate, rec)
			runCepScript(c, clock, nil, l)
			total := 0
			for _, occs := range rec.byKey {
				total += len(occs)
			}
			if total == 0 {
				t.Errorf("operator %s in %s: script produced no occurrences", c.name, ctx)
			}
		}
	}
}

// TestCEPDifferentialAggSuppression guards the aggregate cells against a
// different vacuity: each comparator-bearing cell must also have at least
// one boundary where the window was non-empty but the comparator
// suppressed the emission — otherwise the threshold is not load-bearing.
func TestCEPDifferentialAggSuppression(t *testing.T) {
	for _, c := range cepCases {
		if !strings.HasPrefix(c.name, "AGG_") {
			continue
		}
		// Count boundaries of the aggregate against the same window
		// without the comparator: the bare AGG fires at every non-empty
		// boundary, so any difference is comparator suppression.
		fire := countCepOccs(t, c, c.expr)
		bare := countCepOccs(t, c, stripComparator(c.expr))
		if fire == 0 {
			t.Errorf("%s: comparator never passed", c.name)
		}
		if fire >= bare {
			t.Errorf("%s: comparator never suppressed (fired %d of %d non-empty boundaries)", c.name, fire, bare)
		}
	}
}

func stripComparator(expr string) string {
	if i := strings.Index(expr, ")"); i >= 0 {
		// The aggregate templates have the comparator after the closing
		// parenthesis of AGG(...).
		return expr[:i+1]
	}
	return expr
}

func countCepOccs(t *testing.T, c cepCase, expr string) int {
	t.Helper()
	clock := led.NewManualClock(cepT0)
	l := led.New(clock)
	rec := &cepRecorder{byKey: make(map[string][]string)}
	variant := c
	variant.expr = expr
	buildCepLED(t, l, variant, led.Chronicle, led.Immediate, rec)
	runCepScript(variant, clock, nil, l)
	total := 0
	for _, occs := range rec.byKey {
		total += len(occs)
	}
	return total
}
