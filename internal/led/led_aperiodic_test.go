package led

import (
	"fmt"
	"testing"
)

// Aperiodic A across all four contexts with two overlapping windows.
func TestAperiodicAllContexts(t *testing.T) {
	// Sequence: open(1) open(2) trade(3) close(4) trade(5)
	cases := map[Context]struct {
		count int
		first string // vnos of the first detection
	}{
		Recent:     {count: 1, first: "[2 3]"}, // latest window only
		Chronicle:  {count: 1, first: "[1 3]"}, // oldest window
		Continuous: {count: 2, first: "[1 3]"}, // both windows
		Cumulative: {count: 1, first: "[1 2 3]"},
	}
	for ctx, want := range cases {
		h := newHarness(t, "open", "trade", "close")
		defComposite(t, h, "a", "A(open, trade, close)")
		h.watch(t, "a", ctx)
		h.sig("open")  // 1
		h.sig("open")  // 2
		h.sig("trade") // 3
		h.sig("close") // 4
		h.sig("trade") // 5: Chronicle still has window 2 open; others closed all
		occs := h.take()
		// For Chronicle, the close only removed the oldest window, so the
		// final trade fires once more inside window 2.
		wantCount := want.count
		if ctx == Chronicle {
			wantCount++
		}
		if len(occs) != wantCount {
			t.Errorf("%v: fired %d times, want %d", ctx, len(occs), wantCount)
			continue
		}
		if got := fmt.Sprint(vnos(occs[0])); got != want.first {
			t.Errorf("%v: first detection %s, want %s", ctx, got, want.first)
		}
	}
}

// A* across contexts: accumulation and flush behaviour.
func TestAperiodicStarAllContexts(t *testing.T) {
	// Sequence: open(1) trade(2) open(3) trade(4) close(5)
	cases := map[Context][]string{
		// Recent: the second open replaced the window, so only trade(4)
		// accumulated under open(3).
		Recent: {"[3 4 5]"},
		// Chronicle: close pairs the oldest window (opened at 1), which
		// saw both trades.
		Chronicle: {"[1 2 4 5]"},
		// Continuous: both windows emit; window 1 saw both trades, window
		// 2 only trade(4).
		Continuous: {"[1 2 4 5]", "[3 4 5]"},
		// Cumulative: one merged emission.
		Cumulative: {"[1 2 3 4 4 5]"},
	}
	for ctx, want := range cases {
		h := newHarness(t, "open", "trade", "close")
		defComposite(t, h, "a", "A*(open, trade, close)")
		h.watch(t, "a", ctx)
		h.sig("open")  // 1
		h.sig("trade") // 2
		h.sig("open")  // 3
		h.sig("trade") // 4
		h.sig("close") // 5
		occs := h.take()
		if len(occs) != len(want) {
			t.Errorf("%v: fired %d times, want %d", ctx, len(occs), len(want))
			continue
		}
		for i, w := range want {
			if got := fmt.Sprint(vnos(occs[i])); got != w {
				t.Errorf("%v: occurrence %d = %s, want %s", ctx, i, got, w)
			}
		}
	}
}

// OR occurrences carry the composite's name, not the constituent's.
func TestOrRelabelsEvent(t *testing.T) {
	h := newHarness(t, "e1", "e2")
	defComposite(t, h, "either", "e1 | e2")
	h.watch(t, "either", Recent)
	h.sig("e1")
	occs := h.take()
	if len(occs) != 1 || occs[0].Event != "either" {
		t.Errorf("OR event name: %+v", occs)
	}
	if len(occs[0].Constituents) != 1 || occs[0].Constituents[0].Event != "e1" {
		t.Errorf("OR constituents: %+v", occs[0])
	}
}

// A rule on an OR of two composites (deep reuse).
func TestOrOfComposites(t *testing.T) {
	h := newHarness(t, "e1", "e2", "e3")
	defComposite(t, h, "pairA", "e1 ^ e2")
	defComposite(t, h, "pairB", "e2 ^ e3")
	defComposite(t, h, "any", "pairA | pairB")
	h.watch(t, "any", Chronicle)
	h.sig("e1")
	h.sig("e2") // completes pairA; pairB gets its e2
	h.sig("e3") // completes pairB
	occs := h.take()
	if len(occs) != 2 {
		t.Fatalf("OR of composites fired %d times", len(occs))
	}
	if len(occs[0].Constituents) != 2 || len(occs[1].Constituents) != 2 {
		t.Errorf("constituent counts: %d %d", len(occs[0].Constituents), len(occs[1].Constituents))
	}
}
