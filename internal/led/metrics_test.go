package led

import (
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/obs"
)

// TestDetectLatencyExcludesActions: eca_detect_latency_seconds measures
// detection, not the rule actions a Signal runs afterwards. The action
// below takes one second on the manual clock; none of it may land in the
// histogram.
func TestDetectLatencyExcludesActions(t *testing.T) {
	clock := NewManualClock(t0)
	l := New(clock)
	reg := obs.NewRegistry()
	l.EnableMetrics(reg)
	if err := l.DefinePrimitive("e"); err != nil {
		t.Fatal(err)
	}
	ran := 0
	if err := l.AddRule(&Rule{Name: "slow", Event: "e", Context: Recent, Coupling: Immediate,
		Action: func(*Occ) { clock.Advance(time.Second); ran++ }}); err != nil {
		t.Fatal(err)
	}
	l.Signal(Primitive{Event: "e", Table: "t", Op: "insert", VNo: 1})
	h := reg.Histograms()["eca_detect_latency_seconds"]
	if ran != 1 || h.Count != 1 {
		t.Fatalf("action ran %d times, %d detections observed; want 1 and 1", ran, h.Count)
	}
	if h.Sum != 0 {
		t.Errorf("detect latency sum = %vs, want 0: the action's second was counted as detection", h.Sum)
	}
}
