package led

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/snoop"
)

var t0 = time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)

// harness bundles a LED on a manual clock with an occurrence recorder.
type harness struct {
	led   *LED
	clock *ManualClock
	mu    sync.Mutex
	occs  []*Occ
	seq   int
}

func newHarness(t *testing.T, prims ...string) *harness {
	t.Helper()
	h := &harness{clock: NewManualClock(t0)}
	h.led = New(h.clock)
	for _, p := range prims {
		if err := h.led.DefinePrimitive(p); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// watch attaches an immediate recording rule for event in ctx.
func (h *harness) watch(t *testing.T, event string, ctx Context) {
	t.Helper()
	err := h.led.AddRule(&Rule{
		Name:    fmt.Sprintf("watch-%s-%s-%d", event, ctx, len(h.led.RuleNames())),
		Event:   event,
		Context: ctx,
		Action: func(o *Occ) {
			h.mu.Lock()
			h.occs = append(h.occs, o)
			h.mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sig signals a primitive occurrence one second after the previous one.
func (h *harness) sig(event string) {
	h.seq++
	h.led.Signal(Primitive{
		Event: event, Table: event + "_tbl", Op: "insert", VNo: h.seq,
		At: t0.Add(time.Duration(h.seq) * time.Second),
	})
}

func (h *harness) take() []*Occ {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.occs
	h.occs = nil
	return out
}

// names returns the constituent event names of an occurrence in time order.
func names(o *Occ) []string {
	out := make([]string, len(o.Constituents))
	for i, c := range o.Constituents {
		out[i] = c.Event
	}
	return out
}

// vnos returns the constituent VNos.
func vnos(o *Occ) []int {
	out := make([]int, len(o.Constituents))
	for i, c := range o.Constituents {
		out[i] = c.VNo
	}
	return out
}

func defComposite(t *testing.T, h *harness, name, expr string) {
	t.Helper()
	e, err := snoop.Parse(expr)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.led.DefineComposite(name, e); err != nil {
		t.Fatal(err)
	}
}

func TestPrimitiveRule(t *testing.T) {
	h := newHarness(t, "e1")
	h.watch(t, "e1", Recent)
	h.sig("e1")
	occs := h.take()
	if len(occs) != 1 || occs[0].Event != "e1" || occs[0].Constituents[0].VNo != 1 {
		t.Fatalf("occs: %+v", occs)
	}
	// Unknown events are ignored, not an error.
	h.led.Signal(Primitive{Event: "ghost", At: t0})
	if len(h.take()) != 0 {
		t.Error("ghost event detected")
	}
}

func TestOrAllContexts(t *testing.T) {
	for _, ctx := range []Context{Recent, Chronicle, Continuous, Cumulative} {
		h := newHarness(t, "e1", "e2")
		defComposite(t, h, "either", "e1 | e2")
		h.watch(t, "either", ctx)
		h.sig("e1")
		h.sig("e2")
		h.sig("e1")
		occs := h.take()
		if len(occs) != 3 {
			t.Errorf("%v: OR fired %d times, want 3", ctx, len(occs))
		}
	}
}

func TestAndRecent(t *testing.T) {
	h := newHarness(t, "e1", "e2")
	defComposite(t, h, "both", "e1 ^ e2")
	h.watch(t, "both", Recent)
	h.sig("e1") // vno 1
	h.sig("e2") // vno 2 → (1,2)
	h.sig("e1") // vno 3 → (3,2): latest e2 still present in recent
	h.sig("e2") // vno 4 → (3,4)
	occs := h.take()
	if len(occs) != 3 {
		t.Fatalf("recent AND fired %d times: %+v", len(occs), occs)
	}
	want := [][]int{{1, 2}, {2, 3}, {3, 4}}
	for i, o := range occs {
		got := vnos(o)
		if fmt.Sprint(got) != fmt.Sprint(want[i]) {
			t.Errorf("occ %d vnos = %v, want %v", i, got, want[i])
		}
	}
}

func TestAndChronicle(t *testing.T) {
	h := newHarness(t, "e1", "e2")
	defComposite(t, h, "both", "e1 ^ e2")
	h.watch(t, "both", Chronicle)
	h.sig("e1") // 1
	h.sig("e1") // 2
	h.sig("e2") // 3 → pairs (1,3)
	h.sig("e2") // 4 → pairs (2,4)
	h.sig("e2") // 5 → no e1 left
	occs := h.take()
	if len(occs) != 2 {
		t.Fatalf("chronicle AND fired %d times", len(occs))
	}
	if fmt.Sprint(vnos(occs[0])) != "[1 3]" || fmt.Sprint(vnos(occs[1])) != "[2 4]" {
		t.Errorf("pairs: %v %v", vnos(occs[0]), vnos(occs[1]))
	}
}

func TestAndContinuous(t *testing.T) {
	h := newHarness(t, "e1", "e2")
	defComposite(t, h, "both", "e1 ^ e2")
	h.watch(t, "both", Continuous)
	h.sig("e1") // 1
	h.sig("e1") // 2
	h.sig("e2") // 3 → terminates both windows: (1,3) and (2,3)
	h.sig("e2") // 4 → nothing pending
	occs := h.take()
	if len(occs) != 2 {
		t.Fatalf("continuous AND fired %d times: %v", len(occs), occs)
	}
	if fmt.Sprint(vnos(occs[0])) != "[1 3]" || fmt.Sprint(vnos(occs[1])) != "[2 3]" {
		t.Errorf("pairs: %v %v", vnos(occs[0]), vnos(occs[1]))
	}
}

func TestAndCumulative(t *testing.T) {
	h := newHarness(t, "e1", "e2")
	defComposite(t, h, "both", "e1 ^ e2")
	h.watch(t, "both", Cumulative)
	h.sig("e1") // 1
	h.sig("e1") // 2
	h.sig("e2") // 3 → one occurrence with {1,2,3}
	occs := h.take()
	if len(occs) != 1 {
		t.Fatalf("cumulative AND fired %d times", len(occs))
	}
	if fmt.Sprint(vnos(occs[0])) != "[1 2 3]" {
		t.Errorf("constituents: %v", vnos(occs[0]))
	}
	// Buffers were flushed.
	h.sig("e2")
	if len(h.take()) != 0 {
		t.Error("cumulative AND retained state after flush")
	}
}

func TestSeqOrderingEnforced(t *testing.T) {
	h := newHarness(t, "e1", "e2")
	defComposite(t, h, "ordered", "e1 ; e2")
	h.watch(t, "ordered", Recent)
	h.sig("e2") // terminator with no initiator: nothing
	if len(h.take()) != 0 {
		t.Fatal("SEQ fired without initiator")
	}
	h.sig("e1")
	h.sig("e2")
	occs := h.take()
	if len(occs) != 1 {
		t.Fatalf("SEQ fired %d times", len(occs))
	}
	if fmt.Sprint(names(occs[0])) != "[e1 e2]" {
		t.Errorf("constituent order: %v", names(occs[0]))
	}
	if !occs[0].Constituents[0].At.Before(occs[0].Constituents[1].At) {
		t.Error("SEQ constituents out of time order")
	}
}

func TestSeqContexts(t *testing.T) {
	type result struct {
		count int
		pairs string
	}
	cases := map[Context]result{
		Recent:     {count: 1, pairs: "[[2 3]]"},
		Chronicle:  {count: 2, pairs: "[[1 3] [2 4]]"},
		Continuous: {count: 2, pairs: "[[1 3] [2 3]]"},
		Cumulative: {count: 1, pairs: "[[1 2 3]]"},
	}
	for ctx, want := range cases {
		h := newHarness(t, "e1", "e2")
		defComposite(t, h, "seq", "e1 ; e2")
		h.watch(t, "seq", ctx)
		h.sig("e1") // 1
		h.sig("e1") // 2
		h.sig("e2") // 3
		h.sig("e2") // 4
		occs := h.take()
		var pairs [][]int
		for _, o := range occs {
			pairs = append(pairs, vnos(o))
		}
		if len(occs) < want.count || fmt.Sprint(pairs[:want.count]) != want.pairs {
			t.Errorf("%v: got %d occs %v, want %d %s", ctx, len(occs), pairs, want.count, want.pairs)
		}
	}
}

func TestNot(t *testing.T) {
	h := newHarness(t, "open", "audit", "close")
	defComposite(t, h, "unaudited", "NOT(open, audit, close)")
	h.watch(t, "unaudited", Recent)
	h.sig("open")
	h.sig("close")
	if occs := h.take(); len(occs) != 1 {
		t.Fatalf("NOT without middle: %d occs", len(occs))
	}
	// Middle event cancels.
	h.sig("open")
	h.sig("audit")
	h.sig("close")
	if occs := h.take(); len(occs) != 0 {
		t.Fatalf("NOT fired despite middle event: %+v", occs)
	}
	// Recovery after cancellation.
	h.sig("open")
	h.sig("close")
	if occs := h.take(); len(occs) != 1 {
		t.Fatal("NOT did not recover after cancellation")
	}
}

func TestAperiodic(t *testing.T) {
	h := newHarness(t, "open", "trade", "close")
	defComposite(t, h, "inwindow", "A(open, trade, close)")
	h.watch(t, "inwindow", Recent)
	h.sig("trade") // outside window
	if len(h.take()) != 0 {
		t.Fatal("A fired outside window")
	}
	h.sig("open")
	h.sig("trade") // inside → fire
	h.sig("trade") // inside → fire
	h.sig("close")
	h.sig("trade") // window closed
	occs := h.take()
	if len(occs) != 2 {
		t.Fatalf("A fired %d times, want 2", len(occs))
	}
	if fmt.Sprint(names(occs[0])) != "[open trade]" {
		t.Errorf("constituents: %v", names(occs[0]))
	}
}

func TestAperiodicStar(t *testing.T) {
	h := newHarness(t, "open", "trade", "close")
	defComposite(t, h, "batch", "A*(open, trade, close)")
	h.watch(t, "batch", Recent)
	h.sig("open")
	h.sig("trade")
	h.sig("trade")
	h.sig("close")
	occs := h.take()
	if len(occs) != 1 {
		t.Fatalf("A* fired %d times, want 1", len(occs))
	}
	if fmt.Sprint(names(occs[0])) != "[open trade trade close]" {
		t.Errorf("constituents: %v", names(occs[0]))
	}
	// Empty window: no occurrence at close.
	h.sig("open")
	h.sig("close")
	if len(h.take()) != 0 {
		t.Error("A* fired with no middle occurrences")
	}
}

func TestPeriodic(t *testing.T) {
	h := newHarness(t, "open", "close")
	e, err := snoop.Parse("P(open, [5 sec], close)")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.led.DefineComposite("everyFive", e); err != nil {
		t.Fatal(err)
	}
	h.watch(t, "everyFive", Recent)
	h.led.Signal(Primitive{Event: "open", At: h.clock.Now()})
	h.clock.Advance(16 * time.Second) // ticks at +5, +10, +15
	occs := h.take()
	if len(occs) != 3 {
		t.Fatalf("P fired %d times, want 3", len(occs))
	}
	h.led.Signal(Primitive{Event: "close", At: h.clock.Now()})
	h.clock.Advance(20 * time.Second)
	if extra := h.take(); len(extra) != 0 {
		t.Errorf("P kept ticking after close: %d", len(extra))
	}
}

func TestPeriodicStar(t *testing.T) {
	h := newHarness(t, "open", "close")
	e, _ := snoop.Parse("P*(open, [5 sec], close)")
	if err := h.led.DefineComposite("acc", e); err != nil {
		t.Fatal(err)
	}
	h.watch(t, "acc", Recent)
	h.led.Signal(Primitive{Event: "open", At: h.clock.Now()})
	h.clock.Advance(12 * time.Second) // ticks at +5, +10 accumulated
	if len(h.take()) != 0 {
		t.Fatal("P* emitted before close")
	}
	h.led.Signal(Primitive{Event: "close", At: h.clock.Now()})
	occs := h.take()
	if len(occs) != 1 {
		t.Fatalf("P* fired %d times, want 1", len(occs))
	}
	ticks := 0
	for _, c := range occs[0].Constituents {
		if c.Op == "tick" {
			ticks++
		}
	}
	if ticks != 2 {
		t.Errorf("P* accumulated %d ticks, want 2", ticks)
	}
}

func TestPlus(t *testing.T) {
	h := newHarness(t, "alarm")
	e, _ := snoop.Parse("alarm PLUS [30 sec]")
	if err := h.led.DefineComposite("delayed", e); err != nil {
		t.Fatal(err)
	}
	h.watch(t, "delayed", Recent)
	h.led.Signal(Primitive{Event: "alarm", At: h.clock.Now()})
	h.clock.Advance(29 * time.Second)
	if len(h.take()) != 0 {
		t.Fatal("PLUS fired early")
	}
	h.clock.Advance(2 * time.Second)
	occs := h.take()
	if len(occs) != 1 {
		t.Fatalf("PLUS fired %d times", len(occs))
	}
	if got := occs[0].At.Sub(t0); got != 30*time.Second {
		t.Errorf("PLUS occurrence time offset: %v", got)
	}
}

func TestTemporal(t *testing.T) {
	h := newHarness(t)
	at := t0.Add(time.Minute)
	if err := h.led.DefineComposite("deadline", &snoop.Temporal{At: at}); err != nil {
		t.Fatal(err)
	}
	h.watch(t, "deadline", Recent)
	h.clock.Advance(59 * time.Second)
	if len(h.take()) != 0 {
		t.Fatal("temporal fired early")
	}
	h.clock.Advance(2 * time.Second)
	occs := h.take()
	if len(occs) != 1 || !occs[0].At.Equal(at) {
		t.Fatalf("temporal: %+v", occs)
	}
}

func TestNestedComposite(t *testing.T) {
	// (e1 ^ e2) ; e3 — nested operators share context.
	h := newHarness(t, "e1", "e2", "e3")
	defComposite(t, h, "nested", "(e1 ^ e2) ; e3")
	h.watch(t, "nested", Recent)
	h.sig("e1")
	h.sig("e2")
	h.sig("e3")
	occs := h.take()
	if len(occs) != 1 {
		t.Fatalf("nested fired %d times", len(occs))
	}
	if fmt.Sprint(names(occs[0])) != "[e1 e2 e3]" {
		t.Errorf("constituents: %v", names(occs[0]))
	}
}

func TestCompositeReuse(t *testing.T) {
	// A named composite used as a constituent of another composite —
	// contribution 2 of the paper.
	h := newHarness(t, "e1", "e2", "e3")
	defComposite(t, h, "pair", "e1 ^ e2")
	defComposite(t, h, "tri", "pair ; e3")
	h.watch(t, "tri", Recent)
	h.watch(t, "pair", Recent)
	h.sig("e1")
	h.sig("e2") // pair fires
	h.sig("e3") // tri fires
	occs := h.take()
	if len(occs) != 2 {
		t.Fatalf("got %d occurrences: %+v", len(occs), occs)
	}
	var pairSeen, triSeen bool
	for _, o := range occs {
		switch o.Event {
		case "pair":
			pairSeen = true
		case "tri":
			triSeen = true
			if fmt.Sprint(names(o)) != "[e1 e2 e3]" {
				t.Errorf("tri constituents: %v", names(o))
			}
		}
	}
	if !pairSeen || !triSeen {
		t.Errorf("pair=%v tri=%v", pairSeen, triSeen)
	}
}

func TestMultipleRulesWithPriority(t *testing.T) {
	h := newHarness(t, "e1")
	var order []string
	add := func(name string, prio int) {
		err := h.led.AddRule(&Rule{
			Name: name, Event: "e1", Context: Recent, Priority: prio,
			Action: func(*Occ) { order = append(order, name) },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	add("low", 1)
	add("high", 10)
	add("mid", 5)
	h.sig("e1")
	if fmt.Sprint(order) != "[high mid low]" {
		t.Errorf("priority order: %v", order)
	}
}

// TestDeferredCoupling: the LED hands a DEFERRED firing to its action
// before the Signal that detected it returns, like an IMMEDIATE one;
// holding it for a transaction boundary is the executor's job.
func TestDeferredCoupling(t *testing.T) {
	h := newHarness(t, "e1")
	var held []*Occ
	_ = h.led.AddRule(&Rule{
		Name: "def", Event: "e1", Context: Recent, Coupling: Deferred,
		Action: func(o *Occ) { held = append(held, o) },
	})
	h.sig("e1")
	h.sig("e1")
	if len(held) != 2 || held[0].Constituents[0].VNo != 1 || held[1].Constituents[0].VNo != 2 {
		t.Fatalf("deferred firings handed off: %v", held)
	}
}

// TestDetachedCoupling: the LED hands a DETACHED firing to its action
// before the Signal that detected it returns, exactly like an IMMEDIATE
// one; running it off the triggering transaction is the executor's job.
func TestDetachedCoupling(t *testing.T) {
	h := newHarness(t, "e1")
	ran := 0
	_ = h.led.AddRule(&Rule{
		Name: "det", Event: "e1", Context: Recent, Coupling: Detached,
		Action: func(*Occ) { ran++ },
	})
	h.sig("e1")
	if ran != 1 {
		t.Fatalf("detached action ran %d times before Signal returned, want 1", ran)
	}
}

func TestDropRule(t *testing.T) {
	h := newHarness(t, "e1")
	fired := 0
	_ = h.led.AddRule(&Rule{Name: "r", Event: "e1", Context: Recent,
		Action: func(*Occ) { fired++ }})
	h.sig("e1")
	if err := h.led.DropRule("r"); err != nil {
		t.Fatal(err)
	}
	h.sig("e1")
	if fired != 1 {
		t.Errorf("dropped rule fired: %d", fired)
	}
	if err := h.led.DropRule("r"); err == nil {
		t.Error("double drop succeeded")
	}
}

// TestRuleFiresAcrossDefine checks a rule keeps firing while a composite
// over its event is defined.
func TestRuleFiresAcrossDefine(t *testing.T) {
	h := newHarness(t, "a", "b")
	var fired []int
	if err := h.led.AddRule(&Rule{
		Name: "ra", Event: "a", Context: Recent,
		Action: func(o *Occ) { fired = append(fired, o.Constituents[0].VNo) },
	}); err != nil {
		t.Fatal(err)
	}

	h.sig("a") // vno 1
	defComposite(t, h, "link", "a ; b")
	h.sig("a") // vno 2, a now feeds link too

	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("rule firings across define = %v, want [1 2]", fired)
	}
}

// TestCompositeStateSurvivesDefine checks a half-detected AND keeps its
// partial state while another composite over its constituents is defined.
func TestCompositeStateSurvivesDefine(t *testing.T) {
	h := newHarness(t, "a", "b", "x", "y")
	defComposite(t, h, "ab", "a ^ b")
	var got []*Occ
	if err := h.led.AddRule(&Rule{
		Name: "r", Event: "ab", Context: Chronicle,
		Action: func(o *Occ) { got = append(got, o) },
	}); err != nil {
		t.Fatal(err)
	}

	h.sig("a") // initiate: AND holds state
	defComposite(t, h, "bridge", "(a ; x) | y")
	h.sig("b") // terminate after the define
	if len(got) != 1 {
		t.Fatalf("AND fired %d times across define, want 1", len(got))
	}
	if len(got[0].Constituents) != 2 {
		t.Fatalf("constituents = %d, want 2", len(got[0].Constituents))
	}

	h.sig("a")
	h.sig("b")
	if len(got) != 2 {
		t.Fatalf("AND fired %d times after define, want 2", len(got))
	}
}

func TestDefinitionErrors(t *testing.T) {
	h := newHarness(t, "e1")
	if err := h.led.DefinePrimitive("e1"); err == nil {
		t.Error("duplicate primitive accepted")
	}
	e, _ := snoop.Parse("e1 ^ missing")
	if err := h.led.DefineComposite("c", e); err == nil {
		t.Error("composite over undefined event accepted")
	}
	e, _ = snoop.Parse("e1")
	if err := h.led.DefineComposite("e1", e); err == nil {
		t.Error("duplicate composite name accepted")
	}
	if err := h.led.AddRule(&Rule{Name: "r", Event: "nope", Action: func(*Occ) {}}); err == nil {
		t.Error("rule on undefined event accepted")
	}
	if err := h.led.AddRule(&Rule{Name: "", Event: "e1", Action: func(*Occ) {}}); err == nil {
		t.Error("unnamed rule accepted")
	}
	if err := h.led.AddRule(&Rule{Name: "r2", Event: "e1"}); err == nil {
		t.Error("actionless rule accepted")
	}
	_ = h.led.AddRule(&Rule{Name: "dup", Event: "e1", Action: func(*Occ) {}})
	if err := h.led.AddRule(&Rule{Name: "dup", Event: "e1", Action: func(*Occ) {}}); err == nil {
		t.Error("duplicate rule name accepted")
	}
}

// TestContextsAgreeOnSingleSequence is the DESIGN.md invariant: for one
// non-overlapping initiator/terminator pair, all four contexts detect the
// same single occurrence.
func TestContextsAgreeOnSingleSequence(t *testing.T) {
	for _, expr := range []string{"e1 ^ e2", "e1 ; e2", "NOT(e1, e3, e2)"} {
		var results []string
		for _, ctx := range []Context{Recent, Chronicle, Continuous, Cumulative} {
			h := newHarness(t, "e1", "e2", "e3")
			defComposite(t, h, "c", expr)
			h.watch(t, "c", ctx)
			h.sig("e1")
			h.sig("e2")
			occs := h.take()
			if len(occs) != 1 {
				t.Errorf("%s in %v: %d occurrences", expr, ctx, len(occs))
				continue
			}
			results = append(results, fmt.Sprint(vnos(occs[0])))
		}
		for _, r := range results {
			if r != results[0] {
				t.Errorf("%s: contexts disagree: %v", expr, results)
			}
		}
	}
}

// TestAndCommutative: detection count of e1^e2 equals e2^e1 for a random
// interleaving, per DESIGN.md invariants.
func TestAndCommutative(t *testing.T) {
	seqs := [][]string{
		{"e1", "e2", "e1", "e2", "e2", "e1"},
		{"e2", "e2", "e1", "e1"},
		{"e1", "e1", "e1", "e2"},
	}
	for _, ctx := range []Context{Recent, Chronicle, Continuous, Cumulative} {
		for _, seq := range seqs {
			counts := [2]int{}
			for v, expr := range []string{"e1 ^ e2", "e2 ^ e1"} {
				h := newHarness(t, "e1", "e2")
				defComposite(t, h, "c", expr)
				h.watch(t, "c", ctx)
				for _, e := range seq {
					h.sig(e)
				}
				counts[v] = len(h.take())
			}
			if counts[0] != counts[1] {
				t.Errorf("%v %v: %d vs %d", ctx, seq, counts[0], counts[1])
			}
		}
	}
}

// TestOrCountEqualsSum: OR detections = occurrences of constituents.
func TestOrCountEqualsSum(t *testing.T) {
	h := newHarness(t, "e1", "e2")
	defComposite(t, h, "c", "e1 | e2")
	h.watch(t, "c", Chronicle)
	n1, n2 := 7, 4
	for i := 0; i < n1; i++ {
		h.sig("e1")
	}
	for i := 0; i < n2; i++ {
		h.sig("e2")
	}
	if got := len(h.take()); got != n1+n2 {
		t.Errorf("OR count = %d, want %d", got, n1+n2)
	}
}

func TestConcurrentSignals(t *testing.T) {
	h := newHarness(t, "e1", "e2")
	defComposite(t, h, "c", "e1 ^ e2")
	var count int
	var mu sync.Mutex
	_ = h.led.AddRule(&Rule{Name: "r", Event: "c", Context: Chronicle,
		Action: func(*Occ) { mu.Lock(); count++; mu.Unlock() }})
	var wg sync.WaitGroup
	const n = 100
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ev := "e1"
			if i%2 == 1 {
				ev = "e2"
			}
			h.led.Signal(Primitive{Event: ev, VNo: i, At: t0.Add(time.Duration(i) * time.Millisecond)})
		}(i)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if count != n/2 {
		t.Errorf("chronicle AND detected %d pairs, want %d", count, n/2)
	}
}

func TestManualClock(t *testing.T) {
	c := NewManualClock(t0)
	var fired []int
	c.AfterFunc(2*time.Second, func() { fired = append(fired, 2) })
	cancel := c.AfterFunc(time.Second, func() { fired = append(fired, 1) })
	c.AfterFunc(3*time.Second, func() { fired = append(fired, 3) })
	cancel() // the 1s timer never fires
	c.Advance(2500 * time.Millisecond)
	if fmt.Sprint(fired) != "[2]" {
		t.Errorf("fired: %v", fired)
	}
	if c.PendingTimers() != 1 {
		t.Errorf("pending: %d", c.PendingTimers())
	}
	c.Advance(time.Second)
	if fmt.Sprint(fired) != "[2 3]" {
		t.Errorf("fired: %v", fired)
	}
	if got := c.Now().Sub(t0); got != 3500*time.Millisecond {
		t.Errorf("now: %v", got)
	}
}

func TestParseContextAndCoupling(t *testing.T) {
	for s, want := range map[string]Context{
		"recent": Recent, "CHRONICLE": Chronicle, "Continuous": Continuous, "cumulative": Cumulative,
	} {
		got, err := ParseContext(s)
		if err != nil || got != want {
			t.Errorf("ParseContext(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseContext("nope"); err == nil {
		t.Error("bad context accepted")
	}
	for s, want := range map[string]Coupling{
		"immediate": Immediate, "DEFERRED": Deferred, "DEFERED": Deferred, "detached": Detached,
	} {
		got, err := ParseCoupling(s)
		if err != nil || got != want {
			t.Errorf("ParseCoupling(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseCoupling("sometime"); err == nil {
		t.Error("bad coupling accepted")
	}
	// String round-trips.
	for _, c := range []Context{Recent, Chronicle, Continuous, Cumulative} {
		if got, err := ParseContext(c.String()); err != nil || got != c {
			t.Errorf("context string round trip: %v", c)
		}
	}
	for _, c := range []Coupling{Immediate, Deferred, Detached} {
		if got, err := ParseCoupling(c.String()); err != nil || got != c {
			t.Errorf("coupling string round trip: %v", c)
		}
	}
}
