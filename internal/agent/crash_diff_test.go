package agent_test

import (
	"testing"

	"github.com/activedb/ecaagent/internal/scenario"
)

// The crash-differential proof: every operator under every parameter
// context, killed at the agent's crash points (internal/scenario), loses
// every unsynced write (faults.CrashDir), restarts over the surviving
// files, and must reproduce the crash-free oracle's occurrence set and
// action multiset.

// playCell runs c's oracle once and one restarted single node per kill.
func playCell(t *testing.T, c scenario.Cell) {
	want := scenario.Oracle(t, c.Op, c.Ctx)
	for _, k := range c.Kills {
		n := scenario.NewNode(t, k.Seed, k.Arm())
		n.Play(c.Op, c.Ctx, n.Restart)
		n.Check(k, want)
		n.Agent.Close()
	}
}

func TestCrashDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("crash differential matrix is long")
	}
	for _, c := range scenario.Cells(scenario.AgentCrashes, 3) {
		t.Run(c.Name(), func(t *testing.T) {
			t.Parallel()
			playCell(t, c)
		})
	}
}

// TestRecoveryFiresDueTimers: a window boundary already due when the
// crash-time checkpoint is restored must fire while recovery still
// replays, before the recovery checkpoint prunes the done mark that proves
// its action ran; fired afterwards, the action runs twice.
func TestRecoveryFiresDueTimers(t *testing.T) {
	playCell(t, scenario.One("window-slide", "RECENT", "ingest.preWAL", 2))
}

// TestCrashDifferentialProducesActions guards the shared operator table
// against vacuous cells: every operator's crash-free oracle run must
// execute the composite's action at least once in at least one context,
// or the script never exercises the state the crash points threaten.
func TestCrashDifferentialProducesActions(t *testing.T) {
	for _, op := range scenario.Operators {
		t.Run(op.Name, func(t *testing.T) {
			t.Parallel()
			total := 0
			for _, ctx := range scenario.Contexts {
				total += scenario.Oracle(t, op, ctx).Composite()
			}
			if total == 0 {
				t.Errorf("operator %s: composite action never executed in any context", op.Name)
			}
		})
	}
}
