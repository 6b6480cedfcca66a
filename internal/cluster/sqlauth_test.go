package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/faults"
	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/obs"
	"github.com/activedb/ecaagent/internal/scenario"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// gatedExecer models a node's link to the shared SQL server: while cut,
// every statement fails like a dead network, which is exactly what a
// partitioned zombie experiences when it tries to renew its lease.
type gatedExecer struct {
	inner Execer
	mu    sync.Mutex
	cut   bool
	fails int
}

func (g *gatedExecer) SetCut(on bool) {
	g.mu.Lock()
	g.cut = on
	g.mu.Unlock()
}

func (g *gatedExecer) Exec(sql string) ([]*sqltypes.ResultSet, error) {
	g.mu.Lock()
	cut := g.cut
	if cut {
		g.fails++
	}
	g.mu.Unlock()
	if cut {
		return nil, errors.New("dial tcp: network is unreachable")
	}
	return g.inner.Exec(sql)
}

func sqlAuthExecer(t *testing.T, eng *engine.Engine) Execer {
	t.Helper()
	up, err := agent.LocalDialer(eng)("sharma", "")
	if err != nil {
		t.Fatal(err)
	}
	return up
}

// TestSQLAuthorityCAS proves the epoch row's compare-and-swap: two
// authorities over the same server, strictly increasing grants, the
// loser's stale epoch fenced, and a superseded holder discovering the
// loss on its next renewal.
func TestSQLAuthorityCAS(t *testing.T) {
	eng := engine.New(catalog.New())
	clock := led.NewManualClock(scenario.Base)

	authA, err := NewSQLAuthority(SQLAuthorityConfig{
		Exec: sqlAuthExecer(t, eng), Node: "A", Clock: clock,
		LeaseTTL: 6 * time.Second, RenewEvery: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer authA.Close()
	authB, err := NewSQLAuthority(SQLAuthorityConfig{
		Exec: sqlAuthExecer(t, eng), Node: "B", Clock: clock,
		LeaseTTL: 6 * time.Second, RenewEvery: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer authB.Close()

	epochA, err := authA.Acquire("A")
	if err != nil {
		t.Fatal(err)
	}
	if epochA != 1 {
		t.Fatalf("first grant = %d, want 1", epochA)
	}
	if err := authA.Validate(epochA); err != nil {
		t.Fatalf("fresh grant invalid: %v", err)
	}
	if holder, cur := authA.Current(); holder != "A" || cur != 1 {
		t.Fatalf("Current = (%s, %d), want (A, 1)", holder, cur)
	}

	// Renewal extends the lease through the SQL row.
	clock.Advance(2 * time.Second)
	if err := authA.Validate(epochA); err != nil {
		t.Fatalf("renewed grant invalid: %v", err)
	}

	// B promotes: the CAS moves the row; A's grant is now history.
	epochB, err := authB.Acquire("B")
	if err != nil {
		t.Fatal(err)
	}
	if epochB != epochA+1 {
		t.Fatalf("second grant = %d, want %d", epochB, epochA+1)
	}
	if err := authB.Validate(epochB); err != nil {
		t.Fatalf("B's grant invalid: %v", err)
	}

	// A's next renewal CAS matches zero rows and latches the loss.
	clock.Advance(2 * time.Second)
	if !authA.Lost() {
		t.Fatal("A never noticed it was superseded")
	}
	if err := authA.Validate(epochA); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale grant validated: %v", err)
	}
	if holder, cur := authB.Current(); holder != "B" || cur != epochB {
		t.Fatalf("Current = (%s, %d), want (B, %d)", holder, cur, epochB)
	}
}

// TestSQLAuthorityLeaseExpiry proves the self-fencing half: a holder that
// cannot reach the SQL server stops validating once its lease lapses —
// no communication with the new primary required.
func TestSQLAuthorityLeaseExpiry(t *testing.T) {
	eng := engine.New(catalog.New())
	clock := led.NewManualClock(scenario.Base)
	gate := &gatedExecer{inner: sqlAuthExecer(t, eng)}

	auth, err := NewSQLAuthority(SQLAuthorityConfig{
		Exec: gate, Node: "A", Clock: clock,
		LeaseTTL: 6 * time.Second, RenewEvery: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer auth.Close()
	epoch, err := auth.Acquire("A")
	if err != nil {
		t.Fatal(err)
	}

	gate.SetCut(true)
	clock.Advance(4 * time.Second) // two failed renewals; lease still live
	if err := auth.Validate(epoch); err != nil {
		t.Fatalf("lease should survive to its TTL: %v", err)
	}
	clock.Advance(2 * time.Second) // TTL reached
	if err := auth.Validate(epoch); !errors.Is(err, ErrFenced) {
		t.Fatalf("expired lease validated: %v", err)
	}

	// Healing the link and re-acquiring restores the grant.
	gate.SetCut(false)
	epoch2, err := auth.Acquire("A")
	if err != nil {
		t.Fatal(err)
	}
	if epoch2 <= epoch {
		t.Fatalf("re-acquired epoch %d not beyond %d", epoch2, epoch)
	}
	if err := auth.Validate(epoch2); err != nil {
		t.Fatalf("re-acquired grant invalid: %v", err)
	}
}

// TestZombieLeaseExpiredDeadLettersOnce is the cross-machine zombie cell
// the SQL-backed authority exists for: an asymmetric partition (one-way
// faults.Duplex cut) blinds the standby to the primary AND cuts the
// primary off from the shared SQL server, so its lease renewals fail.
// The standby promotes through the SQL CAS; the old primary's lease
// lapses. Every action the zombie then attempts must execute nothing and
// be dead-lettered exactly once — fenced by its own expired lease, with
// no help from anyone it can still reach.
func TestZombieLeaseExpiredDeadLettersOnce(t *testing.T) {
	eng := engine.New(catalog.New())
	seed := eng.NewSession("sharma")
	if _, err := seed.ExecScript(`create database zldb
use zldb
create table ta (x int null)`); err != nil {
		t.Fatal(err)
	}

	acts := &scenario.ActionRecorder{}
	metA := NewMetrics(obs.NewRegistry())
	metB := NewMetrics(obs.NewRegistry())
	stbFS := faults.NewCrashDir(17)
	applier := NewApplier(stbFS, metB)
	ctrlClock := led.NewManualClock(scenario.Base)

	// A's whole uplink — replication, heartbeats, SQL — dies in one
	// direction; what B sends (nothing A needs) still flows. The Duplex's
	// per-direction partition is the asymmetric cut.
	var fromB []string
	link := faults.NewDuplex(faults.PipeConfig{Seed: 17},
		func(msg string) {
			if f, _, err := DecodeReplFrame([]byte(msg)); err == nil {
				_ = applier.Apply(f)
			}
		},
		func(msg string) { fromB = append(fromB, msg) })
	sink := func(f Frame) error {
		link.Send(faults.AtoB, string(EncodeFrame(f)))
		return nil
	}

	gateA := &gatedExecer{inner: sqlAuthExecer(t, eng)}
	authA, err := NewSQLAuthority(SQLAuthorityConfig{
		Exec: gateA, Node: "A", Clock: ctrlClock,
		LeaseTTL: 5 * time.Second, RenewEvery: time.Second, Met: metA,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer authA.Close()
	epochA, err := authA.Acquire("A")
	if err != nil {
		t.Fatal(err)
	}
	tokA := &Token{}
	tokA.Set(epochA)
	metA.SetRole(RolePrimary)
	metB.SetRole(RoleStandby)

	priFS := faults.NewCrashDir(18)
	dataClockA := led.NewManualClock(scenario.Base)
	a, err := agent.New(agent.Config{
		Dial:       FencedDialer(scenario.RecordingDialer(eng, acts), authA, tokA, metA),
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
	defer hb.Stop()

	cs, err := a.NewClientSession("sharma", "zldb")
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range []string{
		"create trigger zl_pa on ta for insert event ea as print 'pa'",
		"create trigger zl_rule event er = ea RECENT as print 'fired'",
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
	if err := driver.Use("zldb"); err != nil {
		t.Fatal(err)
	}

	// Healthy: one insert, two rule actions, lease renewing.
	if _, err := driver.ExecScript("insert ta values (1)"); err != nil {
		t.Fatal(err)
	}
	a.WaitActions()
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := len(acts.Snapshot()); got != 2 {
		t.Fatalf("healthy action count = %d, want 2", got)
	}
	ctrlClock.Advance(time.Second)
	if got := metA.AuthRenewals.Value(); got == 0 {
		t.Fatal("lease never renewed while healthy")
	}

	// The asymmetric partition: A→B dark, A→SQL dark. A is alive and
	// still believes it leads.
	link.SetPartitioned(faults.AtoB, true)
	gateA.SetCut(true)

	for i := 0; i < hbMisses+2 && !monitor.Promoted(); i++ {
		ctrlClock.Advance(hbInterval)
	}
	if !monitor.Promoted() {
		t.Fatal("standby never promoted behind the partition")
	}
	if link.Cut(faults.AtoB) == 0 {
		t.Fatal("partition cut nothing")
	}
	monitor.Stop()
	if err := applier.Close(); err != nil {
		t.Fatal(err)
	}

	// B promotes through the SQL register it can still reach.
	authB, err := NewSQLAuthority(SQLAuthorityConfig{
		Exec: sqlAuthExecer(t, eng), Node: "B", Clock: ctrlClock,
		LeaseTTL: 5 * time.Second, RenewEvery: time.Second, Met: metB,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer authB.Close()
	epochB, err := authB.Acquire("B")
	if err != nil {
		t.Fatal(err)
	}
	if epochB != epochA+1 {
		t.Fatalf("promotion epoch = %d, want %d", epochB, epochA+1)
	}
	tokB := &Token{}
	tokB.Set(epochB)
	metB.SetRole(RolePrimary)
	metB.Promotions.Inc()
	b, err := agent.New(agent.Config{
		Dial:       FencedDialer(scenario.RecordingDialer(eng, acts), authB, tokB, metB),
		NotifyAddr: "-",
		Clock:      led.NewManualClock(dataClockA.Now()),
		Logf:       func(string, ...any) {},
		Durability: &agent.Durability{FS: stbFS, WALSync: agent.WALSyncAlways},
	})
	if err != nil {
		t.Fatalf("promoting standby: %v", err)
	}
	defer b.Close()

	// Let the zombie's lease lapse: its renewals have been failing into
	// the cut link the whole time.
	ctrlClock.Advance(5 * time.Second)
	if err := authA.Validate(epochA); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie lease still validates after TTL: %v", err)
	}

	// The zombie still owns the engine's notifier: a fresh event lands on
	// A, which detects it and attempts two rule actions. Its expired
	// lease must fence both — locally, without reaching anything.
	if _, err := driver.ExecScript("insert ta values (2)"); err != nil {
		t.Fatal(err)
	}
	a.WaitActions()
	if got := len(acts.Snapshot()); got != 2 {
		t.Fatalf("zombie executed an action on an expired lease: %d executions", got)
	}
	if got := metA.FencedRejections.Value(); got != 2 {
		t.Fatalf("fenced rejections = %d, want exactly 2 (one per action, no retries)", got)
	}
	var fencedDL int
	for _, dl := range a.DeadLetters() {
		if errors.Is(dl.Err, ErrFenced) {
			fencedDL++
		}
	}
	if fencedDL != 2 {
		t.Fatalf("fenced dead letters = %d, want exactly 2", fencedDL)
	}

	// The survivor resyncs the occurrence the partition ate and fires
	// each action exactly once.
	if err := b.Resync(); err != nil {
		t.Fatal(err)
	}
	b.WaitActions()
	if got := len(acts.Snapshot()); got != 4 {
		t.Fatalf("post-failover action count = %d, want 4", got)
	}

	// The SQL row is the ground truth: holder B, epoch B.
	if holder, cur := authB.Current(); holder != "B" || cur != epochB {
		t.Fatalf("SQL register = (%s, %d), want (B, %d)", holder, cur, epochB)
	}
	_ = fmt.Sprintf("%v", fromB) // the reverse direction stayed healthy by construction
}
