package agent

import (
	"os"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/led"
)

// The LED detects and the agent acts: every firing reaches the one action
// queue, in detection order, before the propagation that detected it
// returns, and the action ledger is the one record of detected,
// unfinished firings.

// TestActionsInDetectionOrder: a rule fed single-row inserts completes its
// actions in vNo order, whatever its coupling. DETACHED firings once went
// through a worker pool in front of the action queue and could overtake
// each other; run it with GOMAXPROCS of 2 or more.
func TestActionsInDetectionOrder(t *testing.T) {
	const (
		runs    = 20
		inserts = 1000
	)
	for _, coupling := range []string{"IMMEDIATE", "DETACHED"} {
		t.Run(coupling, func(t *testing.T) {
			for run := 0; run < runs; run++ {
				r := newRigWith(t, func(c *Config) { c.ActionBuffer = inserts })
				cs := r.session(t, "sharma", "sentineldb")
				if _, err := cs.Exec("create trigger t on stock for insert event ev " + coupling + " as print 'x'"); err != nil {
					t.Fatal(err)
				}
				driver := r.eng.NewSession("sharma")
				if err := driver.Use("sentineldb"); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < inserts; i++ {
					if _, err := driver.ExecScript("insert stock values ('X', 1)"); err != nil {
						t.Fatal(err)
					}
				}
				last, inversions := 0, 0
				for i := 0; i < inserts; i++ {
					vno := waitAction(t, r.agent).Occ.Constituents[0].VNo
					if vno <= last {
						inversions++
					}
					last = max(last, vno)
				}
				if inversions > 0 {
					t.Fatalf("run %d: %d actions finished out of vNo order", run, inversions)
				}
			}
		})
	}
}

// TestTimerDispatchHoldsTrackerLock: a timer firing detects under the
// tracker lock, like a Signal, so a checkpoint (which takes that lock
// first) cannot cut between a PLUS emission's detection and the ledger's
// claim of its action.
func TestTimerDispatchHoldsTrackerLock(t *testing.T) {
	clock := led.NewManualClock(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	r := newDurableRig(t)
	a := r.start(func(c *Config) { c.Clock = clock })
	defer a.Close()
	cs := r.session(a)
	for _, ddl := range []string{
		"create trigger t_ins on stock for insert event addStk as print 'ins'",
		"create trigger t_plus event later = addStk plus [2 sec] as print 'plus ran'",
	} {
		if _, err := cs.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cs.Exec("insert stock values ('X', 1)"); err != nil {
		t.Fatal(err)
	}
	waitAction(t, a)
	ledgerLen := func() int {
		a.dur.mu.Lock()
		defer a.dur.mu.Unlock()
		return len(a.dur.ledger)
	}
	before := ledgerLen()

	a.rec.mu.Lock()
	advanced := make(chan struct{})
	go func() {
		clock.Advance(3 * time.Second)
		close(advanced)
	}()
	select {
	case <-advanced:
		a.rec.mu.Unlock()
		t.Fatal("Advance returned while the tracker lock was held")
	case <-time.After(100 * time.Millisecond):
	}
	if n := ledgerLen(); n != before {
		a.rec.mu.Unlock()
		t.Fatalf("ledger grew %d -> %d while the tracker lock was held", before, n)
	}
	a.rec.mu.Unlock()
	<-advanced

	if res := waitAction(t, a); len(res.Messages) != 1 || res.Messages[0] != "plus ran" {
		t.Fatalf("after release: %+v", res)
	}
	a.WaitActions()
	if n := ledgerLen(); n != before+1 {
		t.Errorf("ledger holds %d entries, want %d", n, before+1)
	}
	expectNoAction(t, a)
}

// expectNoAction fails if another action completes within a short grace.
func expectNoAction(t *testing.T, a *Agent) {
	t.Helper()
	select {
	case res := <-a.ActionDone:
		t.Fatalf("unexpected action: %+v", res)
	case <-time.After(50 * time.Millisecond):
	}
}

// startFromV2Fixture boots a durable agent over a committed checkpoint
// image that an earlier build (whose detector kept its own set of
// outstanding firings) wrote over this rig's graph: two rules on addStk,
// and one committed insert whose detection only the image records.
func startFromV2Fixture(t *testing.T, name string) (*durableRig, *Agent) {
	t.Helper()
	img, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	_, epoch, err := decodeCheckpoint(img)
	if err != nil {
		t.Fatalf("v2 fixture rejected: %v", err)
	}
	r := newDurableRig(t)
	setup := r.start(func(c *Config) { c.Durability = nil })
	cs, err := setup.NewClientSession("sharma", "sentineldb")
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range []string{
		"create trigger t_out on stock for insert event addStk DETACHED as print 'outstanding ran'",
		"create trigger t_def event addStk DEFERRED as print 'deferred ran'",
	} {
		if _, err := cs.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	cs.Close()
	r.eng.SetNotifier(func(string, int, string) error { return nil })
	if _, err := r.eng.NewSession("sharma").ExecScript("use sentineldb\ninsert stock values ('IBM', 101)"); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	f, err := r.fs.Create(ckptName(epoch))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(img); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.SyncDir(); err != nil {
		t.Fatal(err)
	}
	return r, r.start(nil)
}

// TestCheckpointReadsV2Outstanding: a firing in an older image's
// outstanding section becomes a ledger entry, and its action runs exactly
// once, also across a further restart.
func TestCheckpointReadsV2Outstanding(t *testing.T) {
	r, a := startFromV2Fixture(t, "ckpt-v2-outstanding")
	res := waitAction(t, a)
	if res.Rule != "sentineldb.sharma.t_out" || len(res.Messages) != 1 || res.Messages[0] != "outstanding ran" {
		t.Fatalf("resumed action: %+v", res)
	}
	a.WaitActions()
	expectNoAction(t, a)
	a.Close()

	again := r.start(nil)
	defer again.Close()
	again.WaitActions()
	if st := again.Stats(); st.ActionsRun != 0 {
		t.Errorf("a second restart re-ran the action: %+v", st)
	}
}

// TestCheckpointReadsV2Deferred: a firing in an older image's deferred
// section, written by a build whose detector held it, waits in the
// agent's held list until FlushDeferred, then runs once.
func TestCheckpointReadsV2Deferred(t *testing.T) {
	_, a := startFromV2Fixture(t, "ckpt-v2-deferred")
	defer a.Close()
	a.WaitActions()
	expectNoAction(t, a)
	if n := deferredGauge(t, a); n != 1 {
		t.Fatalf("restored held list holds %d firings, want 1", n)
	}
	a.FlushDeferred()
	res := waitAction(t, a)
	if res.Rule != "sentineldb.sharma.t_def" || len(res.Messages) != 1 || res.Messages[0] != "deferred ran" {
		t.Fatalf("flushed action: %+v", res)
	}
	a.WaitActions()
	expectNoAction(t, a)
}
