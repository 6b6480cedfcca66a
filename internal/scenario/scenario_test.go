package scenario

import "testing"

// TestCellsArmEveryPoint: the crash and failover matrices arm every one
// of their crash points.
func TestCellsArmEveryPoint(t *testing.T) {
	for _, points := range [][]Crash{AgentCrashes, Crashes} {
		armed := map[Crash]bool{}
		for _, c := range Cells(points, 3) {
			for _, k := range c.Kills {
				armed[k.Crash] = true
			}
		}
		for _, p := range points {
			if !armed[p] {
				t.Errorf("the %d-point matrix never arms %s", len(points), p.Point)
			}
		}
	}
}
