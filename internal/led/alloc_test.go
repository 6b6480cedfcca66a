package led

import (
	"testing"
	"time"
)

// warmedLED builds the canonical hot-path detector: one primitive event
// with one IMMEDIATE rule whose action is a plain counter, pre-signalled
// so every lazily grown buffer (pending scratch, operator maps) has
// reached steady state before the measured runs.
func warmedLED(tb testing.TB) (*LED, *int) {
	tb.Helper()
	l := New(NewManualClock(time.Unix(0, 0)))
	if err := l.DefinePrimitive("e"); err != nil {
		tb.Fatal(err)
	}
	var hits int
	if err := l.AddRule(&Rule{
		Name: "r", Event: "e", Context: Recent,
		Action: func(*Occ) { hits++ },
	}); err != nil {
		tb.Fatal(err)
	}
	at := time.Unix(0, 0)
	for i := 1; i <= 1000; i++ {
		at = at.Add(time.Microsecond)
		l.Signal(Primitive{Event: "e", Op: "insert", VNo: i, At: at})
	}
	return l, &hits
}

// TestAllocsSignalWarmed is the allocation budget for the Signal→detect
// path: one warmed primitive signal through detection and an IMMEDIATE
// rule firing must stay within one heap allocation — the occurrence block
// handed to the rule is the only allocation the design admits.
func TestAllocsSignalWarmed(t *testing.T) {
	l, hits := warmedLED(t)
	at := time.Unix(1, 0)
	vno := 1000
	avg := testing.AllocsPerRun(200, func() {
		at = at.Add(time.Microsecond)
		vno++
		l.Signal(Primitive{Event: "e", Op: "insert", VNo: vno, At: at})
	})
	if avg > 1 {
		t.Fatalf("Signal→detect allocates %.1f objects/op, budget is 1", avg)
	}
	// 1000 warm signals + 200 measured + AllocsPerRun's one warm-up call.
	if *hits != 1201 {
		t.Fatalf("rule ran %d times, want 1201", *hits)
	}
}
