package led

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/activedb/ecaagent/internal/snoop"
)

// runSequence drives a fresh detector over a sequence of primitive events
// (values 0/1/2 map to e1/e2/e3) and returns the detected occurrences.
func runSequence(t *testing.T, expr string, ctx Context, seq []byte) []*Occ {
	t.Helper()
	h := newHarness(t, "e1", "e2", "e3")
	defComposite(t, h, "c", expr)
	h.watch(t, "c", ctx)
	for _, b := range seq {
		h.sig(fmt.Sprintf("e%d", int(b%3)+1))
	}
	return h.take()
}

func seqFromSeed(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(3))
	}
	return out
}

// Property: OR detection count equals the number of constituent
// occurrences, in every context.
func TestPropertyOrCount(t *testing.T) {
	f := func(seed int64) bool {
		seq := seqFromSeed(seed, 30)
		want := 0
		for _, b := range seq {
			if b%3 != 2 { // e1 or e2
				want++
			}
		}
		for _, ctx := range []Context{Recent, Chronicle, Continuous, Cumulative} {
			if got := len(runSequence(t, "e1 | e2", ctx, seq)); got != want {
				t.Logf("ctx %v: got %d want %d (seq %v)", ctx, got, want, seq)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: chronicle AND detects exactly min(#e1, #e2) pairs, each pair
// consisting of the i-th e1 and i-th e2.
func TestPropertyChronicleAndPairing(t *testing.T) {
	f := func(seed int64) bool {
		seq := seqFromSeed(seed, 40)
		n1, n2 := 0, 0
		for _, b := range seq {
			switch b % 3 {
			case 0:
				n1++
			case 1:
				n2++
			}
		}
		want := n1
		if n2 < n1 {
			want = n2
		}
		occs := runSequence(t, "e1 ^ e2", Chronicle, seq)
		if len(occs) != want {
			return false
		}
		// Every occurrence must hold exactly one e1 and one e2, and the
		// e1s (and e2s) must appear in chronological order across
		// occurrences.
		var lastE1, lastE2 time.Time
		for _, o := range occs {
			if len(o.Constituents) != 2 {
				return false
			}
			var t1, t2 time.Time
			for _, c := range o.Constituents {
				switch c.Event {
				case "e1":
					t1 = c.At
				case "e2":
					t2 = c.At
				}
			}
			if t1.IsZero() || t2.IsZero() || !t1.After(lastE1) || !t2.After(lastE2) {
				return false
			}
			lastE1, lastE2 = t1, t2
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: SEQ constituents are always in strict time order, in every
// context.
func TestPropertySeqOrdering(t *testing.T) {
	f := func(seed int64) bool {
		seq := seqFromSeed(seed, 30)
		for _, ctx := range []Context{Recent, Chronicle, Continuous, Cumulative} {
			for _, o := range runSequence(t, "e1 ; e2", ctx, seq) {
				for i := 1; i < len(o.Constituents); i++ {
					if o.Constituents[i].At.Before(o.Constituents[i-1].At) {
						return false
					}
				}
				// The terminator (last constituent) must be an e2 strictly
				// after the first e1.
				last := o.Constituents[len(o.Constituents)-1]
				if last.Event != "e2" || !last.At.After(o.Constituents[0].At) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: NOT never fires when an e3 (middle) occurred between the
// initiator and terminator. We verify by construction: runs containing no
// e1 never fire; every detected occurrence's window is e3-free.
func TestPropertyNotWindowClean(t *testing.T) {
	f := func(seed int64) bool {
		seq := seqFromSeed(seed, 30)
		// e1 = initiator, e3 = middle, e2 = terminator.
		occs := runSequence(t, "NOT(e1, e3, e2)", Chronicle, seq)
		// Reconstruct signal times: the harness assigns t0+1s, t0+2s, ...
		type ev struct {
			name string
			at   time.Time
		}
		var timeline []ev
		for i, b := range seq {
			timeline = append(timeline, ev{fmt.Sprintf("e%d", int(b%3)+1), t0.Add(time.Duration(i+1) * time.Second)})
		}
		for _, o := range occs {
			start := o.Constituents[0].At
			end := o.Constituents[len(o.Constituents)-1].At
			for _, e := range timeline {
				if e.name == "e3" && e.at.After(start) && e.at.Before(end) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: cumulative contexts never lose constituents — the total
// number of e1/e2 constituents across all AND occurrences equals the
// number of signalled e1/e2 up to the last detection.
func TestPropertyCumulativeConservation(t *testing.T) {
	f := func(seed int64) bool {
		seq := seqFromSeed(seed, 30)
		occs := runSequence(t, "e1 ^ e2", Cumulative, seq)
		// Each signalled e1/e2 appears in at most one cumulative
		// occurrence (buffers flush on detection).
		seen := map[int]bool{}
		for _, o := range occs {
			for _, c := range o.Constituents {
				if seen[c.VNo] {
					return false
				}
				seen[c.VNo] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: occurrence timestamps equal the terminator's timestamp (the
// At of the latest constituent), for all binary ops and contexts.
func TestPropertyOccurrenceTime(t *testing.T) {
	f := func(seed int64) bool {
		seq := seqFromSeed(seed, 20)
		for _, expr := range []string{"e1 ^ e2", "e1 ; e2"} {
			for _, ctx := range []Context{Recent, Chronicle, Continuous, Cumulative} {
				for _, o := range runSequence(t, expr, ctx, seq) {
					latest := o.Constituents[0].At
					for _, c := range o.Constituents {
						if c.At.After(latest) {
							latest = c.At
						}
					}
					if !o.At.Equal(latest) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// --- additional deterministic operator edge cases ---

func TestPeriodicChronicleWindows(t *testing.T) {
	// Two starts open two periodic windows; the first close stops only the
	// oldest in CHRONICLE.
	h := newHarness(t, "open", "close")
	e, _ := snoop.Parse("P(open, [5 sec], close)")
	if err := h.led.DefineComposite("p", e); err != nil {
		t.Fatal(err)
	}
	h.watch(t, "p", Chronicle)
	h.led.Signal(Primitive{Event: "open", At: h.clock.Now()})
	h.clock.Advance(2 * time.Second)
	h.led.Signal(Primitive{Event: "open", At: h.clock.Now()})
	h.clock.Advance(10 * time.Second)
	first := len(h.take())
	if first == 0 {
		t.Fatal("no ticks")
	}
	h.led.Signal(Primitive{Event: "close", At: h.clock.Now()}) // closes window 1
	h.clock.Advance(10 * time.Second)
	second := len(h.take())
	if second == 0 {
		t.Fatal("second window should keep ticking")
	}
	h.led.Signal(Primitive{Event: "close", At: h.clock.Now()}) // closes window 2
	h.clock.Advance(10 * time.Second)
	if got := len(h.take()); got != 0 {
		t.Errorf("ticks after both closed: %d", got)
	}
}

func TestPlusMultipleOccurrences(t *testing.T) {
	h := newHarness(t, "alarm")
	e, _ := snoop.Parse("alarm PLUS [10 sec]")
	if err := h.led.DefineComposite("d", e); err != nil {
		t.Fatal(err)
	}
	h.watch(t, "d", Recent)
	h.led.Signal(Primitive{Event: "alarm", VNo: 1, At: h.clock.Now()})
	h.clock.Advance(3 * time.Second)
	h.led.Signal(Primitive{Event: "alarm", VNo: 2, At: h.clock.Now()})
	h.clock.Advance(8 * time.Second) // fires the first (at +10) but not the second (+13)
	occs := h.take()
	if len(occs) != 1 || occs[0].Constituents[0].VNo != 1 {
		t.Fatalf("first PLUS firing: %+v", occs)
	}
	h.clock.Advance(3 * time.Second)
	occs = h.take()
	if len(occs) != 1 || occs[0].Constituents[0].VNo != 2 {
		t.Fatalf("second PLUS firing: %+v", occs)
	}
}

func TestAperiodicChronicleClosesOldestWindow(t *testing.T) {
	h := newHarness(t, "open", "trade", "close")
	defComposite(t, h, "a", "A(open, trade, close)")
	h.watch(t, "a", Chronicle)
	h.sig("open")  // window 1
	h.sig("open")  // window 2
	h.sig("close") // closes window 1 only
	h.sig("trade") // still inside window 2
	occs := h.take()
	if len(occs) != 1 {
		t.Fatalf("A after partial close fired %d times", len(occs))
	}
}

func TestTemporalInPastNeverFires(t *testing.T) {
	h := newHarness(t)
	past := t0.Add(-time.Hour)
	if err := h.led.DefineComposite("old", &snoop.Temporal{At: past}); err != nil {
		t.Fatal(err)
	}
	h.watch(t, "old", Recent)
	h.clock.Advance(24 * time.Hour)
	if got := len(h.take()); got != 0 {
		t.Errorf("past temporal fired %d times", got)
	}
}

func TestMixedContextSubscriptionsIndependent(t *testing.T) {
	// Two rules on the same composite in different contexts each see their
	// own context's occurrences.
	h := newHarness(t, "e1", "e2")
	defComposite(t, h, "c", "e1 ^ e2")
	h.watch(t, "c", Recent)
	h.watch(t, "c", Cumulative)
	h.sig("e1")
	h.sig("e1")
	h.sig("e2")
	occs := h.take()
	byCtx := map[Context]int{}
	for _, o := range occs {
		byCtx[o.Context]++
	}
	if byCtx[Recent] != 1 || byCtx[Cumulative] != 1 {
		t.Errorf("per-context detections: %v", byCtx)
	}
	// The cumulative occurrence carries both e1s; the recent only one.
	for _, o := range occs {
		switch o.Context {
		case Recent:
			if len(o.Constituents) != 2 {
				t.Errorf("recent constituents: %d", len(o.Constituents))
			}
		case Cumulative:
			if len(o.Constituents) != 3 {
				t.Errorf("cumulative constituents: %d", len(o.Constituents))
			}
		}
	}
}

func TestPeriodicZeroAndNegativeDurations(t *testing.T) {
	h := newHarness(t, "a", "b")
	if err := h.led.DefineComposite("bad", &snoop.Periodic{
		Start: &snoop.EventRef{Name: "a"}, End: &snoop.EventRef{Name: "b"},
	}); err == nil {
		t.Error("zero-period periodic accepted")
	}
	if err := h.led.DefineComposite("bad2", &snoop.Plus{
		E: &snoop.EventRef{Name: "a"}, Delta: -time.Second,
	}); err == nil {
		t.Error("negative PLUS accepted")
	}
}
