package scenario

import (
	"fmt"
	"slices"
	"testing"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/faults"
	"github.com/activedb/ecaagent/internal/led"
)

// Run is one lifetime-spanning run: the engine (the SQL server), the
// recorders and the data clock's time survive every agent incarnation.
type Run struct {
	T     testing.TB
	Eng   *engine.Engine
	Acts  ActionRecorder
	Occs  OccRecorder
	Clock *led.ManualClock
	Crash *faults.CrashSet // nil for the oracle
	Agent *agent.Agent

	driver *engine.Session
}

// NewRun creates the server side of a run: the database and the three
// monitored tables. Boot starts its first agent.
func NewRun(t testing.TB, crash *faults.CrashSet) *Run {
	t.Helper()
	r := &Run{T: t, Eng: engine.New(catalog.New()), Clock: led.NewManualClock(Base), Crash: crash}
	if _, err := r.Eng.NewSession("sharma").ExecScript(`create database scenariodb
use scenariodb
create table ta (x int null)
create table tb (x int null)
create table tc (x int null)`); err != nil {
		t.Fatal(err)
	}
	return r
}

// Dialer is the run's recording in-process dialer.
func (r *Run) Dialer() agent.UpstreamDialer { return RecordingDialer(r.Eng, &r.Acts) }

// Boot starts an agent incarnation over dur and binds the engine's
// notifier and the driver session to it. The data clock is re-created at
// the current instant: a dead process's pending timers die with it, and
// the restored ones re-arm on the new clock at their original deadlines.
func (r *Run) Boot(dial agent.UpstreamDialer, dur *agent.Durability) {
	r.T.Helper()
	r.Clock = led.NewManualClock(r.Clock.Now())
	a, err := agent.New(agent.Config{
		Dial:       dial,
		NotifyAddr: "-",
		Clock:      r.Clock,
		Forward:    r.Occs.Add,
		Logf:       func(string, ...any) {},
		Durability: dur,
	})
	if err != nil {
		r.T.Fatalf("starting agent: %v", err)
	}
	r.Agent = a
	r.Eng.SetNotifier(func(host string, port int, msg string) error {
		a.Deliver(msg)
		return nil
	})
	r.driver = r.Eng.NewSession("sharma")
	if err := r.driver.Use("scenariodb"); err != nil {
		r.T.Fatal(err)
	}
}

// Play installs three primitive events and the composite op under ctx,
// drives Script, calls down once when the armed crash point trips, and
// returns with every action drained. down must Boot the incarnation that
// finishes the script.
func (r *Run) Play(op Operator, ctx string, down func()) {
	r.T.Helper()
	cs, err := r.Agent.NewClientSession("sharma", "scenariodb")
	if err != nil {
		r.T.Fatal(err)
	}
	for _, ddl := range []string{
		"create trigger sc_pa on ta for insert event ea as print 'pa'",
		"create trigger sc_pb on tb for insert event eb as print 'pb'",
		"create trigger sc_pc on tc for insert event ec2 as print 'pc'",
		fmt.Sprintf("create trigger sc_comp event comp = %s %s as print 'comp'", op.Expr, ctx),
	} {
		if _, err := cs.Exec(ddl); err != nil {
			r.T.Fatalf("setup %q: %v", ddl, err)
		}
	}
	cs.Close()
	downed := false
	for _, s := range Script {
		r.step(s)
		// Quiesce after every step so spawned action goroutines reach
		// their crash points before the next step — otherwise whether the
		// simulated power cut lands inside this step or several steps
		// later would be a scheduling accident, not a test parameter.
		r.Agent.WaitActions()
		if !downed && r.Crash.Tripped() != "" {
			down()
			downed = true
		}
	}
	r.Agent.WaitActions()
}

// step executes one workload step, swallowing a simulated-crash panic
// that unwinds out of the delivery or checkpoint path.
func (r *Run) step(s Step) {
	defer faults.Recover()
	if s.Advance > 0 {
		r.Clock.Advance(s.Advance)
	}
	if s.Insert != "" {
		if _, err := r.driver.ExecScript("insert " + s.Insert + " values (1)"); err != nil {
			r.T.Errorf("insert %s: %v", s.Insert, err)
		}
	}
	if s.Ckpt {
		if err := r.Agent.Checkpoint(); err != nil {
			r.T.Errorf("checkpoint: %v", err)
		}
	}
}

// Outcome is what the run has observed so far.
func (r *Run) Outcome() Outcome { return Outcome{Occs: r.Occs.Snapshot(), Acts: r.Acts.Snapshot()} }

// Check reports a kill whose crash point never tripped, and every
// difference between the run's outcome and the oracle's.
func (r *Run) Check(k Kill, want Outcome) {
	r.T.Helper()
	got := r.Outcome()
	if tripped := r.Crash.Tripped(); tripped != k.Point {
		r.T.Errorf("%s: tripped %q — the kill site went untested", k, tripped)
	}
	if !slices.Equal(want.Occs, got.Occs) {
		r.T.Errorf("%s: occurrence stream diverged\noracle:  %v\nsubject: %v", k, want.Occs, got.Occs)
	}
	if !slices.Equal(want.Acts, got.Acts) {
		r.T.Errorf("%s: action stream diverged (%d vs %d)\nonly-oracle:  %v\nonly-subject: %v",
			k, len(want.Acts), len(got.Acts), diff(want.Acts, got.Acts), diff(got.Acts, want.Acts))
	}
}

// Node is the single-node subject: one agent over a CrashDir, restarted
// in place when its crash point trips.
type Node struct {
	*Run
	fs *faults.CrashDir
}

// NewNode boots a single node whose torn tails follow seed.
func NewNode(t testing.TB, seed int64, crash *faults.CrashSet) *Node {
	t.Helper()
	n := &Node{Run: NewRun(t, crash), fs: faults.NewCrashDir(seed)}
	n.Boot(n.Dialer(), &agent.Durability{FS: n.fs, WALSync: agent.WALSyncAlways, Crash: crash})
	return n
}

// Restart models the machine coming back: in-flight work quiesces (every
// completion it produced before the power cut is pre-crash history), the
// directory drops all unsynced writes, and a fresh incarnation recovers
// over the survivors. The dead incarnation is abandoned, not closed — a
// dead process runs no shutdown path; its clock (and thus its pending
// timer callbacks) is never advanced again.
func (n *Node) Restart() {
	n.T.Helper()
	n.Agent.WaitActions()
	n.fs.Crash()
	n.fs.Restart()
	n.Boot(n.Dialer(), &agent.Durability{FS: n.fs, WALSync: agent.WALSyncAlways})
}

// Oracle is the crash-free single-node outcome of op under ctx.
func Oracle(t testing.TB, op Operator, ctx string) Outcome {
	t.Helper()
	n := NewNode(t, 1, nil)
	n.Play(op, ctx, nil)
	n.Agent.Close()
	return n.Outcome()
}
