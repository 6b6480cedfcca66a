package cluster

import (
	"errors"
	"testing"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/faults"
	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/obs"
	"github.com/activedb/ecaagent/internal/scenario"
)

// TestZombiePrimaryFenced drives the classic asymmetric-partition
// topology with the faults.Pipe partition mode: the primary keeps
// running, but the one-directional pipe carrying its heartbeats and
// replication frames goes dark, the standby counts its missed heartbeats
// and promotes under a fresh fencing epoch — and then the zombie,
// still believing it leads, tries to fire a rule action. The fencing
// token must reject it terminally (one validation, no retries, the action
// dead-lettered), and the promoted node must fire that action exactly
// once after its resync sweep finds the occurrence the partition ate.
func TestZombiePrimaryFenced(t *testing.T) {
	eng := engine.New(catalog.New())
	seed := eng.NewSession("sharma")
	if _, err := seed.ExecScript(`create database zdb
use zdb
create table ta (x int null)`); err != nil {
		t.Fatal(err)
	}

	acts := &scenario.ActionRecorder{}
	auth := NewEpochRegistry()
	metA := NewMetrics(obs.NewRegistry())
	metB := NewMetrics(obs.NewRegistry())
	stbFS := faults.NewCrashDir(7)
	applier := NewApplier(stbFS, metB)

	// One direction of the A↔B link: A's frames ride it, B's acks are
	// implicit (the in-process applier applies synchronously). Partitioning
	// it models the zombie topology — B stops hearing A; A keeps running.
	pipe := faults.NewPipe(faults.PipeConfig{}, func(msg string) {
		if f, _, err := DecodeReplFrame([]byte(msg)); err == nil {
			_ = applier.Apply(f)
		}
	})
	sink := func(f Frame) error {
		pipe.Send(string(EncodeFrame(f)))
		return nil
	}

	epochA, err := auth.Acquire("A")
	if err != nil {
		t.Fatal(err)
	}
	tokA := &Token{}
	tokA.Set(epochA)
	metA.SetRole(RolePrimary)
	metB.SetRole(RoleStandby)

	priFS := faults.NewCrashDir(8)
	dataClockA := led.NewManualClock(scenario.Base)
	ctrlClock := led.NewManualClock(scenario.Base)
	a, err := agent.New(agent.Config{
		Dial:       FencedDialer(scenario.RecordingDialer(eng, acts), auth, tokA, metA),
		NotifyAddr: "-",
		Clock:      dataClockA,
		Logf:       func(string, ...any) {},
		Durability: &agent.Durability{FS: NewShipFS(priFS, sink, nil, metA), WALSync: agent.WALSyncAlways},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	monitor := NewMonitor(MonitorConfig{
		Clock:    ctrlClock,
		Interval: hbInterval,
		Misses:   hbMisses,
	}, metB, nil)
	applier.OnHeartbeat = monitor.Beat
	monitor.Start()
	hb := NewHeartbeater(ctrlClock, hbInterval, tokA, sink, metA)
	hb.Start()

	cs, err := a.NewClientSession("sharma", "zdb")
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range []string{
		"create trigger z_pa on ta for insert event ea as print 'pa'",
		"create trigger z_rule event er = ea RECENT as print 'fired'",
	} {
		if _, err := cs.Exec(ddl); err != nil {
			t.Fatalf("%q: %v", ddl, err)
		}
	}
	cs.Close()

	eng.SetNotifier(func(host string, port int, msg string) error {
		a.Deliver(msg)
		return nil
	})
	driver := eng.NewSession("sharma")
	if err := driver.Use("zdb"); err != nil {
		t.Fatal(err)
	}

	// Healthy cluster: one event, one action, replicated and beating.
	if _, err := driver.ExecScript("insert ta values (1)"); err != nil {
		t.Fatal(err)
	}
	a.WaitActions()
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// One insert fires two rule actions: the primitive trigger's own
	// action and the composite rule's.
	if got := len(acts.Snapshot()); got != 2 {
		t.Fatalf("healthy action count = %d, want 2", got)
	}
	ctrlClock.Advance(hbInterval) // a beat lands, the monitor's first tick sees it
	if m := monitor.Misses(); m != 0 {
		t.Fatalf("misses with live primary = %d, want 0", m)
	}

	// The partition: A's direction goes dark. A itself is alive and keeps
	// trying to beat into the cable.
	pipe.SetPartitioned(true)
	for i := 0; i < hbMisses+2 && !monitor.Promoted(); i++ {
		ctrlClock.Advance(hbInterval)
	}
	if !monitor.Promoted() {
		t.Fatal("standby never promoted behind the partition")
	}
	if pipe.Cut() == 0 {
		t.Fatal("partition cut nothing — the zombie's beats were not even attempted")
	}
	monitor.Stop()
	if err := applier.Close(); err != nil {
		t.Fatal(err)
	}

	// Promote B over the replica under a fresh epoch; A's token is now
	// stale everywhere that matters.
	epochB, err := auth.Acquire("B")
	if err != nil {
		t.Fatal(err)
	}
	tokB := &Token{}
	tokB.Set(epochB)
	metB.SetRole(RolePrimary)
	metB.Promotions.Inc()
	b, err := agent.New(agent.Config{
		Dial:       FencedDialer(scenario.RecordingDialer(eng, acts), auth, tokB, metB),
		NotifyAddr: "-",
		Clock:      led.NewManualClock(dataClockA.Now()),
		Logf:       func(string, ...any) {},
		Durability: &agent.Durability{FS: stbFS, WALSync: agent.WALSyncAlways},
	})
	if err != nil {
		t.Fatalf("promoting standby: %v", err)
	}
	defer b.Close()
	if got := len(acts.Snapshot()); got != 2 {
		t.Fatalf("promotion re-fired an already-done action: %d executions", got)
	}

	// The zombie still owns the engine's notifier: a fresh event lands on
	// A, which detects it and tries to act — and must be fenced.
	if _, err := driver.ExecScript("insert ta values (2)"); err != nil {
		t.Fatal(err)
	}
	a.WaitActions()
	if got := len(acts.Snapshot()); got != 2 {
		t.Fatalf("zombie fired an action through a stale token: %d executions", got)
	}
	// Exactly one rejection per attempted action (two rules fired on the
	// insert): a retried fencing error would inflate this.
	if got := metA.FencedRejections.Value(); got != 2 {
		t.Fatalf("fenced rejections = %d, want exactly 2", got)
	}
	var fenced bool
	for _, dl := range a.DeadLetters() {
		if errors.Is(dl.Err, ErrFenced) {
			fenced = true
		}
	}
	if !fenced {
		t.Fatal("fenced action missing from the zombie's dead-letter queue")
	}

	// The survivor's resync sweep recovers the occurrence the partition
	// ate and fires the action exactly once.
	if err := b.Resync(); err != nil {
		t.Fatal(err)
	}
	b.WaitActions()
	if got := len(acts.Snapshot()); got != 4 {
		t.Fatalf("post-failover action count = %d, want 4 (each firing exactly once)", got)
	}

	// Sanity on the role series and epoch bookkeeping.
	if holder, cur := auth.Current(); holder != "B" || cur != epochB {
		t.Fatalf("authority = (%s, %d), want (B, %d)", holder, cur, epochB)
	}
	if metB.Role() != RolePrimary || metA.Role() != RolePrimary {
		// A still *believes* it is primary — that is the point; only the
		// authority knows better.
		t.Fatalf("roles: A=%q B=%q", metA.Role(), metB.Role())
	}
}
