package agent

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestDeferredFlushAtCommit: DEFERRED rules queued during a transaction
// run when the transaction commits, without an explicit FlushDeferred.
func TestDeferredFlushAtCommit(t *testing.T) {
	r := newRig(t)
	cs := r.session(t, "sharma", "sentineldb")
	if _, err := cs.Exec("create trigger t on stock for insert event ev DEFERRED as print 'deferred at commit'"); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Exec("begin tran insert stock values ('X', 1)"); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-r.agent.ActionDone:
		t.Fatalf("deferred rule ran before commit: %+v", res)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := cs.Exec("commit"); err != nil {
		t.Fatal(err)
	}
	res := waitAction(t, r.agent)
	if len(res.Messages) != 1 || res.Messages[0] != "deferred at commit" {
		t.Errorf("deferred-at-commit: %+v", res)
	}
}

// TestDeferredNotFlushedByOtherBatches: ordinary batches without COMMIT
// leave the deferred queue alone.
func TestDeferredNotFlushedByOtherBatches(t *testing.T) {
	r := newRig(t)
	cs := r.session(t, "sharma", "sentineldb")
	if _, err := cs.Exec("create trigger t on stock for insert event ev DEFERRED as print 'x'"); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Exec("insert stock values ('X', 1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Exec("select count(*) from stock"); err != nil {
		t.Fatal(err)
	}
	if got := deferredGauge(t, r.agent); got != 1 {
		t.Fatalf("held firings after plain select: %d", got)
	}
	r.agent.FlushDeferred()
	waitAction(t, r.agent)
}

// deferredGauge reads eca_deferred_actions, the number of held DEFERRED
// firings.
func deferredGauge(t *testing.T, a *Agent) int {
	t.Helper()
	v, ok := promValue(a.Metrics(), "eca_deferred_actions")
	if !ok {
		t.Fatal("eca_deferred_actions absent from the registry")
	}
	return int(v)
}

// TestDeferredPriorityAcrossTriggers: held firings of unrelated triggers,
// detected by separate signals, flush highest priority first, not in
// detection order.
func TestDeferredPriorityAcrossTriggers(t *testing.T) {
	r := newRig(t)
	cs := r.session(t, "sharma", "sentineldb")
	driver := r.eng.NewSession("sharma")
	if err := driver.Use("sentineldb"); err != nil {
		t.Fatal(err)
	}
	names := []string{"low", "high", "mid"}
	for i, name := range names {
		if _, err := driver.ExecScript("create table t_" + name + " (x int null)"); err != nil {
			t.Fatal(err)
		}
		ddl := fmt.Sprintf("create trigger r_%s on t_%s for insert event e_%s DEFERRED %d as print '%s'",
			name, name, name, []int{1, 9, 5}[i], name)
		if _, err := cs.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range names {
		if _, err := driver.ExecScript("insert t_" + name + " values (1)"); err != nil {
			t.Fatal(err)
		}
	}
	r.agent.WaitActions()
	expectNoAction(t, r.agent)
	r.agent.FlushDeferred()
	var got []string
	for range names {
		got = append(got, waitAction(t, r.agent).Messages...)
	}
	if want := "[high mid low]"; fmt.Sprint(got) != want {
		t.Fatalf("flush order = %v, want %s", got, want)
	}
}

// TestDeferredDroppedTriggerNeverRuns: a trigger dropped while its firing
// is held never runs that firing; another trigger's held firing still
// does.
func TestDeferredDroppedTriggerNeverRuns(t *testing.T) {
	r := newRig(t)
	cs := r.session(t, "sharma", "sentineldb")
	for _, ddl := range []string{
		"create trigger t_keep on stock for insert event ev DEFERRED as print 'kept'",
		"create trigger t_drop event ev DEFERRED 5 as print 'dropped'",
	} {
		if _, err := cs.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cs.Exec("insert stock values ('X', 1)"); err != nil {
		t.Fatal(err)
	}
	if n := deferredGauge(t, r.agent); n != 2 {
		t.Fatalf("held firings = %d, want 2", n)
	}
	if _, err := cs.Exec("drop trigger t_drop"); err != nil {
		t.Fatal(err)
	}
	r.agent.FlushDeferred()
	if res := waitAction(t, r.agent); res.Rule != "sentineldb.sharma.t_keep" {
		t.Fatalf("flushed action: %+v", res)
	}
	r.agent.WaitActions()
	expectNoAction(t, r.agent)
	if n := deferredGauge(t, r.agent); n != 0 {
		t.Errorf("held firings after flush = %d, want 0", n)
	}
}

// TestDeferredGaugeCountsHeldFirings: eca_deferred_actions counts held
// DEFERRED firings, not IMMEDIATE ones, and reads 0 after a flush.
func TestDeferredGaugeCountsHeldFirings(t *testing.T) {
	r := newRig(t)
	cs := r.session(t, "sharma", "sentineldb")
	for _, ddl := range []string{
		"create trigger t_def on stock for insert event ev DEFERRED as print 'd'",
		"create trigger t_now event ev as print 'i'",
	} {
		if _, err := cs.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 3; i++ {
		if _, err := cs.Exec("insert stock values ('X', 1)"); err != nil {
			t.Fatal(err)
		}
		if n := deferredGauge(t, r.agent); n != i {
			t.Fatalf("after %d inserts the gauge reads %d", i, n)
		}
	}
	r.agent.FlushDeferred()
	if n := deferredGauge(t, r.agent); n != 0 {
		t.Fatalf("after flush the gauge reads %d", n)
	}
	r.agent.WaitActions()
	if st := r.agent.Stats(); st.ActionsRun != 6 {
		t.Errorf("actions run = %d, want 6", st.ActionsRun)
	}
}

// TestDeferredSurvivesCheckpointRestart: a held firing is written into the
// checkpoint, survives a power cut and a restart, and runs exactly once at
// the next flush — not at boot, and not again after a further restart.
func TestDeferredSurvivesCheckpointRestart(t *testing.T) {
	r := newDurableRig(t)
	a := r.start(nil)
	cs := r.session(a)
	if _, err := cs.Exec("create trigger t_def on stock for insert event ev DEFERRED as print 'deferred ran'"); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Exec("insert stock values ('X', 1)"); err != nil {
		t.Fatal(err)
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Power cut: the incarnation is abandoned, not closed.
	a.WaitActions()
	r.fs.Crash()
	r.fs.Restart()

	b := r.start(nil)
	b.WaitActions()
	expectNoAction(t, b)
	if n := deferredGauge(t, b); n != 1 {
		t.Fatalf("restored held firings = %d, want 1", n)
	}
	b.FlushDeferred()
	if res := waitAction(t, b); res.Rule != "sentineldb.sharma.t_def" || len(res.Messages) != 1 || res.Messages[0] != "deferred ran" {
		t.Fatalf("flushed action: %+v", res)
	}
	b.WaitActions()
	expectNoAction(t, b)
	b.Close()

	c := r.start(nil)
	defer c.Close()
	c.FlushDeferred()
	c.WaitActions()
	expectNoAction(t, c)
	if st := c.Stats(); st.ActionsRun != 0 {
		t.Errorf("a further restart re-ran the action: %+v", st)
	}
}

// TestDeferredHeldListConcurrent: detections on several connections,
// flushes, checkpoints and gauge reads reach the held list at once; every
// occurrence's action still runs exactly once. Run it under -race.
func TestDeferredHeldListConcurrent(t *testing.T) {
	const writers, inserts = 3, 40
	r := newDurableRig(t)
	a := r.start(nil)
	defer a.Close()
	cs := r.session(a)
	if _, err := cs.Exec("create trigger t_def on stock for insert event ev DEFERRED as print 'd'"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		driver := r.eng.NewSession("sharma")
		if err := driver.Use("sentineldb"); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < inserts; i++ {
				if _, err := driver.ExecScript("insert stock values ('X', 1)"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var side sync.WaitGroup
	side.Add(1)
	go func() {
		defer side.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			a.FlushDeferred()
			if err := a.Checkpoint(); err != nil {
				t.Error(err)
			}
			if _, ok := promValue(a.Metrics(), "eca_deferred_actions"); !ok {
				t.Error("eca_deferred_actions absent")
			}
		}
	}()
	wg.Wait()
	close(stop)
	side.Wait()
	a.FlushDeferred()
	a.WaitActions()
	if st := a.Stats(); st.ActionsRun != writers*inserts {
		t.Errorf("actions run = %d, want %d", st.ActionsRun, writers*inserts)
	}
	if n := deferredGauge(t, a); n != 0 {
		t.Errorf("held firings after the last flush = %d", n)
	}
}

// TestDeferredFlushedActionNotRerunAfterCrash: a held firing that was
// flushed and whose action ran before a power cut, with no checkpoint
// since, is re-detected by journal replay; the journal's done record
// keeps it from being held, and run, a second time.
func TestDeferredFlushedActionNotRerunAfterCrash(t *testing.T) {
	r := newDurableRig(t)
	a := r.start(nil)
	cs := r.session(a)
	if _, err := cs.Exec("create trigger t_def on stock for insert event ev DEFERRED as print 'deferred ran'"); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Exec("insert stock values ('X', 1)"); err != nil {
		t.Fatal(err)
	}
	a.FlushDeferred()
	waitAction(t, a)
	a.WaitActions()
	r.fs.Crash()
	r.fs.Restart()

	b := r.start(nil)
	defer b.Close()
	b.WaitActions()
	if n := deferredGauge(t, b); n != 0 {
		t.Errorf("held firings after restart = %d, want 0", n)
	}
	b.FlushDeferred()
	b.WaitActions()
	expectNoAction(t, b)
	if st := b.Stats(); st.ActionsRun != 0 {
		t.Errorf("the flushed action ran again after the restart: %+v", st)
	}
}
