package led

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// The snapshot differential suite proves SnapshotState/RestoreState lose
// nothing: for every Snoop operator, every parameter context, and every
// cut point of the operator's script, a detector snapshotted at the cut,
// rebuilt from scratch (fresh graph, as recovery rebuilds it from the
// system tables) and restored must finish the script with exactly the
// occurrence stream an uninterrupted reference detector produces.

// buildSnapLED defines one copy of the operator's rule set on l, recording
// occurrences through rec.
func buildSnapLED(t *testing.T, l *LED, c diffCase, ctx Context, rec func(*Occ)) {
	t.Helper()
	for _, p := range []string{"e1", "e2", "e3"} {
		if err := l.DefinePrimitive("s_" + p); err != nil {
			t.Fatal(err)
		}
	}
	expr := fmt.Sprintf(c.expr, "s_e1", "s_e2", "s_e3")
	defComposite(t, &harness{led: l}, "s_comp", expr)
	if err := l.AddRule(&Rule{
		Name: "s_r", Event: "s_comp", Context: ctx, Action: rec,
	}); err != nil {
		t.Fatal(err)
	}
}

// runSnapScript drives the given steps into every detector on the shared
// clock; vno persists across calls so a resumed script continues the
// occurrence numbering.
func runSnapScript(steps []diffStep, clock *ManualClock, vno *int, leds ...*LED) {
	for _, st := range steps {
		switch st.kind {
		case "sig":
			*vno++
			clock.Advance(time.Second)
			p := Primitive{
				Event: "s_" + st.event,
				Table: st.event + "_tbl", Op: "insert", VNo: *vno, At: clock.Now(),
			}
			for _, l := range leds {
				l.Signal(p)
			}
		case "adv":
			clock.Advance(st.d)
		}
	}
}

func TestSnapshotRestoreDifferential(t *testing.T) {
	contexts := []Context{Recent, Chronicle, Continuous, Cumulative}
	for _, c := range diffCases {
		for _, ctx := range contexts {
			for cut := 0; cut <= len(c.script); cut++ {
				t.Run(fmt.Sprintf("%s/%s/cut%d", c.name, ctx, cut), func(t *testing.T) {
					clock := NewManualClock(t0)
					ref := New(clock)
					subj := New(clock)
					var refOccs, subjOccs []string
					crashed := false
					buildSnapLED(t, ref, c, ctx, func(o *Occ) {
						refOccs = append(refOccs, canonOcc(o))
					})
					buildSnapLED(t, subj, c, ctx, func(o *Occ) {
						// The abandoned detector's leftover timers keep
						// firing on the shared clock after the "crash";
						// a dead process would not record them.
						if !crashed {
							subjOccs = append(subjOccs, canonOcc(o))
						}
					})

					vno := 0
					runSnapScript(c.script[:cut], clock, &vno, ref, subj)

					snap := subj.SnapshotState()
					crashed = true
					// Abandon subj mid-flight (its leftover timers firing
					// into the void model the crashed process) and rebuild
					// on a fresh detector, as recovery rebuilds the graph
					// from the system tables before restoring state.
					restored := New(clock)
					buildSnapLED(t, restored, c, ctx, func(o *Occ) {
						subjOccs = append(subjOccs, canonOcc(o))
					})
					if err := restored.RestoreState(snap); err != nil {
						t.Fatalf("RestoreState: %v", err)
					}

					runSnapScript(c.script[cut:], clock, &vno, ref, restored)

					if strings.Join(refOccs, "\n") != strings.Join(subjOccs, "\n") {
						t.Errorf("streams diverge after restore at cut %d\nreference:\n  %s\nrestored:\n  %s",
							cut, strings.Join(refOccs, "\n  "), strings.Join(subjOccs, "\n  "))
					}
				})
			}
		}
	}
}

// TestRestoreRejectsMismatchedGraph guards the cold-start fallback: a
// snapshot taken against one graph must not silently load onto another.
func TestRestoreRejectsMismatchedGraph(t *testing.T) {
	clock := NewManualClock(t0)
	l := New(clock)
	buildSnapLED(t, l, diffCases[2] /* SEQ */, Chronicle, func(*Occ) {})
	vno := 0
	runSnapScript([]diffStep{sig("e1")}, clock, &vno, l)
	snap := l.SnapshotState()
	if len(snap.Nodes) == 0 {
		t.Fatal("snapshot captured no state")
	}

	other := New(clock)
	buildSnapLED(t, other, diffCases[0] /* OR: shallower graph */, Chronicle, func(*Occ) {})
	if err := other.RestoreState(snap); err == nil {
		t.Fatal("restore onto a mismatched graph succeeded")
	}

	empty := New(clock)
	if err := empty.RestoreState(snap); err == nil {
		t.Fatal("restore onto an empty detector succeeded")
	}
}
