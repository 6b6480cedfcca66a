package scenario

import "testing"

// TestCellsArmEveryPoint: the crash, DETACHED crash, DEFERRED crash and
// failover matrices
// arm every one of their crash points.
func TestCellsArmEveryPoint(t *testing.T) {
	for _, m := range []struct {
		name   string
		points []Crash
		cells  []Cell
	}{
		{"crash", AgentCrashes, Cells(AgentCrashes, 3)},
		{"DETACHED crash", AgentCrashes, CouplingCells("DETACHED")},
		{"DEFERRED crash", AgentCrashes, CouplingCells("DEFERRED")},
		{"failover", Crashes, Cells(Crashes, 3)},
	} {
		armed := map[Crash]bool{}
		for _, c := range m.cells {
			for _, k := range c.Kills {
				armed[k.Crash] = true
			}
		}
		for _, p := range m.points {
			if !armed[p] {
				t.Errorf("the %s matrix never arms %s", m.name, p.Point)
			}
		}
	}
}
