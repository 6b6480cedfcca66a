package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/faults"
	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/obs"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// The failover-differential suite: for every Snoop operator under every
// parameter context, the same workload is driven twice — once against a
// crash-free single-node oracle, once against a two-node cluster whose
// primary is killed mid-run at a named crash point (the agent's seven
// durability points plus the mid-replication windows ShipFS exposes).
// The standby detects the silence on a deterministic clock, promotes
// after the configured run of missed heartbeats, and finishes the
// workload. The promoted node must produce exactly the oracle's
// occurrence set and exactly the oracle's action multiset: failover
// loses nothing and double-fires nothing.

var foClockBase = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)

const (
	foInterval = 500 * time.Millisecond
	foMisses   = 3
	// foPromoteBound bounds crash-to-promotion in *control* time: the
	// miss hysteresis plus one interval of slack. Asserted on the manual
	// clock, so it is exact, not a race against the scheduler.
	foPromoteBound = (foMisses + 1) * foInterval
)

// foActionRecorder captures rule-action executions at the upstream Exec
// level, surviving agent restarts and failovers.
type foActionRecorder struct {
	mu      sync.Mutex
	batches []string
}

func foIsActionBatch(b string) bool {
	for _, line := range strings.Split(b, "\n") {
		if strings.HasPrefix(line, "execute ") {
			return true
		}
	}
	return false
}

func (r *foActionRecorder) record(batch string) {
	if !foIsActionBatch(batch) {
		return
	}
	r.mu.Lock()
	r.batches = append(r.batches, batch)
	r.mu.Unlock()
}

func (r *foActionRecorder) snapshot() []string {
	r.mu.Lock()
	out := append([]string(nil), r.batches...)
	r.mu.Unlock()
	sort.Strings(out)
	return out
}

type foRecordingUpstream struct {
	up  agent.Upstream
	rec *foActionRecorder
}

func (u foRecordingUpstream) Exec(sql string) ([]*sqltypes.ResultSet, error) {
	rs, err := u.up.Exec(sql)
	if err == nil {
		u.rec.record(sql)
	}
	return rs, err
}

func (u foRecordingUpstream) Close() error { return u.up.Close() }

func foRecordingDialer(eng *engine.Engine, rec *foActionRecorder) agent.UpstreamDialer {
	inner := agent.LocalDialer(eng)
	return func(user, db string) (agent.Upstream, error) {
		up, err := inner(user, db)
		if err != nil {
			return nil, err
		}
		return foRecordingUpstream{up: up, rec: rec}, nil
	}
}

// foOccRecorder collects the primitive-occurrence set keyed (event, vNo);
// replay re-forwards records, so set semantics absorb the duplicates.
type foOccRecorder struct {
	mu   sync.Mutex
	seen map[string]bool
}

func (r *foOccRecorder) add(p led.Primitive) {
	r.mu.Lock()
	if r.seen == nil {
		r.seen = make(map[string]bool)
	}
	r.seen[fmt.Sprintf("%s|%d", p.Event, p.VNo)] = true
	r.mu.Unlock()
}

func (r *foOccRecorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.seen))
	for k := range r.seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

type foStep struct {
	advance time.Duration
	insert  string
	ckpt    bool
}

var foScript = []foStep{
	{advance: time.Second, insert: "ta"},
	{advance: time.Second, insert: "tb"},
	{ckpt: true},
	{advance: time.Second, insert: "tc"},
	{advance: time.Second, insert: "ta"},
	{insert: "tb"},
	{advance: 2 * time.Second, insert: "tc"},
	{ckpt: true},
	{advance: time.Second, insert: "ta"},
	{insert: "tb"},
	{insert: "tc"},
	{advance: 5 * time.Second},
}

var foOperators = []struct{ name, expr string }{
	{"or", "ea | eb"},
	{"and", "ea ^ eb"},
	{"seq", "ea ; eb"},
	{"not", "not(ea, eb, ec2)"},
	{"aperiodic", "A(ea, eb, ec2)"},
	{"aperiodic-star", "A*(ea, eb, ec2)"},
	{"periodic", "P(ea, [2 sec], ec2)"},
	{"periodic-star", "P*(ea, [2 sec], ec2)"},
	{"plus", "ea plus [3 sec]"},
	{"temporal", "[2030-01-01 00:00:07]"},
}

var foContexts = []string{"RECENT", "CHRONICLE", "CONTINUOUS", "CUMULATIVE"}

// foCrashes arms the agent's seven durability crash points plus the
// mid-replication windows: between a local occurrence append and its ship
// (repl.preShip.occ — the standby must gap-fill via resync), just after
// (repl.postShip.occ — the standby must dedup the replayed record), and
// the same pair around a checkpoint image ship. The nth counts include
// boot-time recovery hits, matching the single-node suite.
var foCrashes = []struct {
	point string
	nth   int
}{
	{"ingest.preWAL", 2},
	{"ingest.postWAL", 4},
	{"action.preExec", 3},
	{"action.postDone", 2},
	{"ckpt.beforeRename", 2},
	{"ckpt.afterRename", 2},
	{"ckpt.begin", 3},
	{"repl.preShip.occ", 3},
	{"repl.postShip.occ", 3},
	{"repl.preShip.ckpt", 2},
	{"repl.postShip.ckpt", 2},
}

// foRun is one cluster lifetime: engine, recorders, both durable
// directories, and the control clock survive the primary's death; the
// data clock is re-created at the promotion instant exactly like a
// single-node restart (a dead process's pending timers die with it).
type foRun struct {
	t    *testing.T
	eng  *engine.Engine
	acts *foActionRecorder
	occs *foOccRecorder

	priFS *faults.CrashDir // primary's durable directory
	stbFS *faults.CrashDir // standby's replica directory

	dataClock *led.ManualClock // LED temporal operators
	ctrlClock *led.ManualClock // heartbeats + failure detection

	auth    *EpochRegistry
	metA    *Metrics
	metB    *Metrics
	applier *Applier
	hb      *Heartbeater
	monitor *Monitor
	crash   *faults.CrashSet

	agent  *agent.Agent
	driver *engine.Session
}

func newFORun(t *testing.T, seed int64, crash *faults.CrashSet) *foRun {
	t.Helper()
	r := &foRun{
		t:         t,
		eng:       engine.New(catalog.New()),
		acts:      &foActionRecorder{},
		occs:      &foOccRecorder{},
		priFS:     faults.NewCrashDir(seed),
		stbFS:     faults.NewCrashDir(seed + 1000),
		dataClock: led.NewManualClock(foClockBase),
		ctrlClock: led.NewManualClock(foClockBase),
		auth:      NewEpochRegistry(),
		crash:     crash,
	}
	r.metA = NewMetrics(obs.NewRegistry())
	r.metB = NewMetrics(obs.NewRegistry())
	seed0 := r.eng.NewSession("sharma")
	if _, err := seed0.ExecScript(`create database fodb
use fodb
create table ta (x int null)
create table tb (x int null)
create table tc (x int null)`); err != nil {
		t.Fatal(err)
	}
	r.startPrimary()
	return r
}

// startPrimary boots node A: fenced upstream, ShipFS tee into the
// standby's applier (synchronous in-process replication — the
// exactly-once setting), heartbeats and failure detection on the control
// clock.
func (r *foRun) startPrimary() {
	r.t.Helper()
	epoch, err := r.auth.Acquire("A")
	if err != nil {
		r.t.Fatal(err)
	}
	tokA := &Token{}
	tokA.Set(epoch)
	r.metA.SetRole(RolePrimary)
	r.metB.SetRole(RoleStandby)

	r.applier = NewApplier(r.stbFS, r.metB)
	ship := NewShipFS(r.priFS, r.applier.Apply, r.crash, r.metA)

	a, err := agent.New(agent.Config{
		Dial:       FencedDialer(foRecordingDialer(r.eng, r.acts), r.auth, tokA, r.metA),
		NotifyAddr: "-",
		Clock:      r.dataClock,
		Forward:    r.occs.add,
		Logf:       func(string, ...any) {},
		Durability: &agent.Durability{FS: ship, WALSync: agent.WALSyncAlways, Crash: r.crash},
	})
	if err != nil {
		r.t.Fatalf("starting primary: %v", err)
	}
	r.agent = a
	r.bindDriver()

	r.hb = NewHeartbeater(r.ctrlClock, foInterval, tokA, r.applier.Apply, r.metA)
	r.monitor = NewMonitor(MonitorConfig{
		Clock:    r.ctrlClock,
		Interval: foInterval,
		Misses:   foMisses,
	}, r.metB, nil)
	r.applier.OnHeartbeat = r.monitor.Beat
	r.monitor.Start()
	r.hb.Start()
}

func (r *foRun) bindDriver() {
	r.t.Helper()
	a := r.agent
	r.eng.SetNotifier(func(host string, port int, msg string) error {
		a.Deliver(msg)
		return nil
	})
	r.driver = r.eng.NewSession("sharma")
	if err := r.driver.Use("fodb"); err != nil {
		r.t.Fatal(err)
	}
}

func (r *foRun) setup(expr, ctx string) {
	r.t.Helper()
	cs, err := r.agent.NewClientSession("sharma", "fodb")
	if err != nil {
		r.t.Fatal(err)
	}
	defer cs.Close()
	for _, ddl := range []string{
		"create trigger fo_pa on ta for insert event ea as print 'pa'",
		"create trigger fo_pb on tb for insert event eb as print 'pb'",
		"create trigger fo_pc on tc for insert event ec2 as print 'pc'",
		fmt.Sprintf("create trigger fo_comp event comp = %s %s as print 'comp'", expr, ctx),
	} {
		if _, err := cs.Exec(ddl); err != nil {
			r.t.Fatalf("setup %q: %v", ddl, err)
		}
	}
}

func (r *foRun) step(s foStep) {
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := faults.IsCrash(rec); !ok {
				panic(rec)
			}
		}
	}()
	if s.advance > 0 {
		r.dataClock.Advance(s.advance)
	}
	if s.insert != "" {
		if _, err := r.driver.ExecScript("insert " + s.insert + " values (1)"); err != nil {
			r.t.Errorf("insert %s: %v", s.insert, err)
		}
	}
	if s.ckpt {
		if err := r.agent.Checkpoint(); err != nil {
			r.t.Errorf("checkpoint: %v", err)
		}
	}
}

// failover is the kill-and-promote sequence: the dead primary's pending
// work quiesces (pre-crash history), its directory drops unsynced writes,
// its beacon dies with it, and control time advances interval by interval
// until the monitor promotes — which must happen within the
// deterministic deadline. The standby then boots a full agent over the
// replica directory under a fresh fencing epoch.
func (r *foRun) failover() {
	r.t.Helper()
	r.agent.WaitActions()
	r.priFS.Crash()
	r.hb.Stop()

	crashAt := r.ctrlClock.Now()
	for i := 0; i < foMisses+2 && !r.monitor.Promoted(); i++ {
		r.ctrlClock.Advance(foInterval)
	}
	if !r.monitor.Promoted() {
		r.t.Fatalf("standby did not promote after %v of silence", r.ctrlClock.Now().Sub(crashAt))
	}
	if took := r.ctrlClock.Now().Sub(crashAt); took > foPromoteBound {
		r.t.Errorf("promotion took %v of control time, deadline %v", took, foPromoteBound)
	}
	r.monitor.Stop()
	if err := r.applier.Close(); err != nil {
		r.t.Fatalf("closing replica handles: %v", err)
	}

	epoch, err := r.auth.Acquire("B")
	if err != nil {
		r.t.Fatal(err)
	}
	tokB := &Token{}
	tokB.Set(epoch)
	r.metB.SetRole(RolePromoting)
	r.metB.Promotions.Inc()

	r.dataClock = led.NewManualClock(r.dataClock.Now())
	a, err := agent.New(agent.Config{
		Dial:       FencedDialer(foRecordingDialer(r.eng, r.acts), r.auth, tokB, r.metB),
		NotifyAddr: "-",
		Clock:      r.dataClock,
		Forward:    r.occs.add,
		Logf:       func(string, ...any) {},
		Durability: &agent.Durability{FS: r.stbFS, WALSync: agent.WALSyncAlways},
	})
	if err != nil {
		r.t.Fatalf("promoting standby: %v", err)
	}
	r.agent = a
	r.metB.SetRole(RolePrimary)
	r.bindDriver()
}

// run drives the full script, failing over once when the armed crash
// point trips, and returns with all actions drained.
func (r *foRun) run() {
	failed := false
	for _, s := range foScript {
		r.step(s)
		r.agent.WaitActions()
		if !failed && r.crash.Tripped() != "" {
			r.failover()
			failed = true
		}
	}
	r.agent.WaitActions()
}

func TestFailoverDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("failover differential matrix is long")
	}
	cell := 0
	for _, op := range foOperators {
		for _, ctx := range foContexts {
			op, ctx, cell := op, ctx, cell
			t.Run(op.name+"/"+ctx, func(t *testing.T) {
				t.Parallel()
				oracle := newOracleRun(t, 1)
				oracle.setup(op.expr, ctx)
				oracle.run()
				wantActs := oracle.acts.snapshot()
				wantOccs := oracle.occs.snapshot()
				oracle.agent.Close()

				for i := 0; i < 3; i++ {
					spec := foCrashes[(cell+i)%len(foCrashes)]
					crash := faults.NewCrashSet()
					crash.Arm(spec.point, spec.nth)
					sub := newFORun(t, int64(cell*37+i+2), crash)
					sub.setup(op.expr, ctx)
					sub.run()
					tag := fmt.Sprintf("%s nth=%d (tripped=%q)", spec.point, spec.nth, crash.Tripped())
					if gotOccs := sub.occs.snapshot(); !foEqual(wantOccs, gotOccs) {
						t.Errorf("%s: occurrence stream diverged\noracle:   %v\npromoted: %v", tag, wantOccs, gotOccs)
					}
					if gotActs := sub.acts.snapshot(); !foEqual(wantActs, gotActs) {
						t.Errorf("%s: action stream diverged (%d vs %d)\nonly-oracle:   %v\nonly-promoted: %v",
							tag, len(wantActs), len(gotActs), foDiff(wantActs, gotActs), foDiff(gotActs, wantActs))
					}
					if crash.Tripped() != "" && sub.metB.Role() != RolePrimary {
						t.Errorf("%s: standby role = %q after failover", tag, sub.metB.Role())
					}
					sub.agent.Close()
				}
			})
			cell++
		}
	}
}

// oracleRun is the crash-free single-node baseline: the same agent
// configuration minus cluster wrapping, killed never.
type oracleRun struct {
	t      *testing.T
	eng    *engine.Engine
	acts   *foActionRecorder
	occs   *foOccRecorder
	fs     *faults.CrashDir
	clock  *led.ManualClock
	agent  *agent.Agent
	driver *engine.Session
}

func newOracleRun(t *testing.T, seed int64) *oracleRun {
	t.Helper()
	r := &oracleRun{
		t:     t,
		eng:   engine.New(catalog.New()),
		acts:  &foActionRecorder{},
		occs:  &foOccRecorder{},
		fs:    faults.NewCrashDir(seed),
		clock: led.NewManualClock(foClockBase),
	}
	seed0 := r.eng.NewSession("sharma")
	if _, err := seed0.ExecScript(`create database fodb
use fodb
create table ta (x int null)
create table tb (x int null)
create table tc (x int null)`); err != nil {
		t.Fatal(err)
	}
	a, err := agent.New(agent.Config{
		Dial:       foRecordingDialer(r.eng, r.acts),
		NotifyAddr: "-",
		Clock:      r.clock,
		Forward:    r.occs.add,
		Logf:       func(string, ...any) {},
		Durability: &agent.Durability{FS: r.fs, WALSync: agent.WALSyncAlways},
	})
	if err != nil {
		t.Fatalf("starting oracle: %v", err)
	}
	r.agent = a
	a2 := a
	r.eng.SetNotifier(func(host string, port int, msg string) error {
		a2.Deliver(msg)
		return nil
	})
	r.driver = r.eng.NewSession("sharma")
	if err := r.driver.Use("fodb"); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *oracleRun) setup(expr, ctx string) {
	r.t.Helper()
	cs, err := r.agent.NewClientSession("sharma", "fodb")
	if err != nil {
		r.t.Fatal(err)
	}
	defer cs.Close()
	for _, ddl := range []string{
		"create trigger fo_pa on ta for insert event ea as print 'pa'",
		"create trigger fo_pb on tb for insert event eb as print 'pb'",
		"create trigger fo_pc on tc for insert event ec2 as print 'pc'",
		fmt.Sprintf("create trigger fo_comp event comp = %s %s as print 'comp'", expr, ctx),
	} {
		if _, err := cs.Exec(ddl); err != nil {
			r.t.Fatalf("setup %q: %v", ddl, err)
		}
	}
}

func (r *oracleRun) run() {
	for _, s := range foScript {
		if s.advance > 0 {
			r.clock.Advance(s.advance)
		}
		if s.insert != "" {
			if _, err := r.driver.ExecScript("insert " + s.insert + " values (1)"); err != nil {
				r.t.Errorf("insert %s: %v", s.insert, err)
			}
		}
		if s.ckpt {
			if err := r.agent.Checkpoint(); err != nil {
				r.t.Errorf("checkpoint: %v", err)
			}
		}
		r.agent.WaitActions()
	}
	r.agent.WaitActions()
}

func foEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func foDiff(a, b []string) []string {
	count := make(map[string]int)
	for _, s := range b {
		count[s]++
	}
	var out []string
	for _, s := range a {
		if count[s] > 0 {
			count[s]--
			continue
		}
		out = append(out, s)
	}
	return out
}
